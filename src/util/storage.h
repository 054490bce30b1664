// ArrayRef<T>: the owned-or-borrowed storage cell behind every persisted
// array in the offline-stage artifacts (multigraph CSR, index pools,
// dictionary blobs).
//
// Built structures own their data (a std::vector moved in at Build() time);
// structures restored from an AMF artifact borrow theirs (a span into the
// mmap'ed file, kept alive by the engine holding the mapping). Everything
// after Build()/LoadAmf() is read-only — that immutability is what makes the
// two modes interchangeable behind one const-span interface, so the query
// path never knows which one it is running against.

#ifndef AMBER_UTIL_STORAGE_H_
#define AMBER_UTIL_STORAGE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace amber {

/// \brief Immutable array that either owns a vector or borrows a span.
template <typename T>
class ArrayRef {
 public:
  ArrayRef() = default;

  /// Takes ownership of `v` (the Build() path).
  ArrayRef(std::vector<T> v)  // NOLINT(runtime/explicit)
      : owned_(std::move(v)), view_(owned_) {}

  /// Borrows `s`; the caller guarantees the backing memory outlives this
  /// ArrayRef (the mmap'ed-artifact path).
  static ArrayRef Borrowed(std::span<const T> s) {
    ArrayRef r;
    r.view_ = s;
    return r;
  }

  // Copying an owned ArrayRef deep-copies the data; copying a borrowed one
  // shares the view (both aliases of the same immutable mapping).
  ArrayRef(const ArrayRef& o) { *this = o; }
  ArrayRef& operator=(const ArrayRef& o) {
    if (this == &o) return *this;
    if (o.is_owned()) {
      owned_ = o.owned_;
      view_ = owned_;
    } else {
      owned_.clear();
      owned_.shrink_to_fit();
      view_ = o.view_;
    }
    return *this;
  }

  // Moves transfer the vector buffer, so the view stays valid.
  ArrayRef(ArrayRef&& o) noexcept
      : owned_(std::move(o.owned_)), view_(o.view_) {
    o.view_ = {};
    o.owned_.clear();
  }
  ArrayRef& operator=(ArrayRef&& o) noexcept {
    if (this == &o) return *this;
    owned_ = std::move(o.owned_);
    view_ = o.view_;
    o.view_ = {};
    o.owned_.clear();
    return *this;
  }

  size_t size() const { return view_.size(); }
  bool empty() const { return view_.empty(); }
  const T* data() const { return view_.data(); }
  const T& operator[](size_t i) const { return view_[i]; }
  const T& front() const { return view_.front(); }
  const T& back() const { return view_.back(); }
  const T* begin() const { return view_.data(); }
  const T* end() const { return view_.data() + view_.size(); }
  std::span<const T> span() const { return view_; }

  /// True when this ArrayRef owns its buffer (false for views into a
  /// mapped artifact).
  bool is_owned() const {
    return !owned_.empty() && view_.data() == owned_.data();
  }

  /// Bytes of payload (owned heap or mapped file alike).
  uint64_t ByteSize() const {
    return static_cast<uint64_t>(view_.size()) * sizeof(T);
  }

  /// Content equality, regardless of ownership mode.
  friend bool operator==(const ArrayRef& a, const ArrayRef& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  std::vector<T> owned_;
  std::span<const T> view_;
};

}  // namespace amber

#endif  // AMBER_UTIL_STORAGE_H_
