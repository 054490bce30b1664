#include "rdf/term.h"

#include "util/string_util.h"

namespace amber {

std::string Term::ToNTriples() const {
  switch (kind) {
    // Wrap the escaped value in its own buffer: ToNTriples builds every
    // dictionary key of the encoder, where a second buffer costs a copy.
    // (`"<" + std::string` does the same, but GCC 12 at -O3 raises a false
    // -Wrestrict on it.)
    case TermKind::kIri: {
      std::string out = EscapeNTriples(value);
      out.insert(0, 1, '<');
      out += '>';
      return out;
    }
    case TermKind::kBlank: {
      std::string out = "_:";
      out += value;
      return out;
    }
    case TermKind::kLiteral: {
      std::string out = EscapeNTriples(value);
      out.insert(0, 1, '"');
      out += '"';
      if (!lang.empty()) {
        out += '@';
        out += lang;
      } else if (!datatype.empty()) {
        out += "^^<";
        out += EscapeNTriples(datatype);
        out += '>';
      }
      return out;
    }
  }
  return "";
}

std::string Triple::ToNTriples() const {
  return subject.ToNTriples() + " " + predicate.ToNTriples() + " " +
         object.ToNTriples() + " .";
}

}  // namespace amber
