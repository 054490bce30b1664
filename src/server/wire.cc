#include "server/wire.h"

#include <limits>
#include <utility>

#include "core/exec.h"
#include "util/json.h"

namespace amber {
namespace wire {

namespace {

/// Typed field extraction helpers over the parsed request object. Each
/// returns kInvalidArgument naming the field on a type mismatch, so a
/// client sees exactly what it got wrong.
Status WrongType(std::string_view key, const char* want) {
  return Status::InvalidArgument("request field \"" + std::string(key) +
                                 "\" must be " + want);
}

Status ReadUInt(const json::Value& v, std::string_view key, uint64_t* out) {
  if (!v.is_number() || !v.is_uint) {
    return WrongType(key, "a non-negative integer");
  }
  *out = v.uint_v;
  return Status::OK();
}

Status ReadBool(const json::Value& v, std::string_view key, bool* out) {
  if (!v.is_bool()) return WrongType(key, "a boolean");
  *out = v.bool_v;
  return Status::OK();
}

void WriteRows(json::Writer* w,
               const std::vector<std::vector<std::string>>& rows) {
  w->BeginArray();
  for (const std::vector<std::string>& row : rows) {
    w->BeginArray();
    for (const std::string& cell : row) w->String(cell);
    w->EndArray();
  }
  w->EndArray();
}

void WriteStrings(json::Writer* w, const std::vector<std::string>& v) {
  w->BeginArray();
  for (const std::string& s : v) w->String(s);
  w->EndArray();
}

void WriteSlotList(json::Writer* w, const std::vector<uint32_t>& slot_list) {
  w->BeginArray();
  for (uint32_t s : slot_list) {
    if (s == kNoGroupList) {
      w->Null();
    } else {
      w->UInt(s);
    }
  }
  w->EndArray();
}

void WriteGroups(json::Writer* w, const std::vector<uint32_t>& slot_list,
                 const std::vector<ResultGroup>& groups) {
  w->BeginArray();
  for (const ResultGroup& g : groups) {
    w->BeginObject();
    w->Key("fixed");
    w->BeginArray();
    for (size_t i = 0; i < g.fixed.size(); ++i) {
      const bool satellite =
          i < slot_list.size() && slot_list[i] != kNoGroupList;
      if (satellite) {
        w->Null();
      } else {
        w->String(g.fixed[i]);
      }
    }
    w->EndArray();
    w->Key("lists");
    w->BeginArray();
    for (const std::vector<std::string>& list : g.lists) WriteStrings(w, list);
    w->EndArray();
    w->KV("multiplicity", g.multiplicity);
    w->EndObject();
  }
  w->EndArray();
}

void WriteExecStats(json::Writer* w, const ExecStats& s) {
  w->BeginObject();
  w->KV("rows", s.rows);
  w->KV("timed_out", s.timed_out);
  w->KV("truncated", s.truncated);
  w->KV("cancelled", s.cancelled);
  w->KV("elapsed_ms", s.elapsed_ms);
  w->KV("recursion_calls", s.recursion_calls);
  w->KV("initial_candidates", s.initial_candidates);
  w->KV("embeddings_found", s.embeddings_found);
  w->KV("lists_materialized", s.lists_materialized);
  w->KV("galloped_elements", s.galloped_elements);
  w->KV("scanned_elements", s.scanned_elements);
  w->KV("probe_checks", s.probe_checks);
  w->KV("probe_hits", s.probe_hits);
  w->KV("range_scans", s.range_scans);
  w->KV("range_scan_elements", s.range_scan_elements);
  w->KV("predicate_checks", s.predicate_checks);
  w->KV("peak_arena_bytes", s.peak_arena_bytes);
  w->KV("threads_used", s.threads_used);
  w->KV("tasks_dispatched", s.tasks_dispatched);
  w->KV("groups_emitted", s.groups_emitted);
  w->KV("factorized_rows_represented", s.factorized_rows_represented);
  w->KV("rows_expanded", s.rows_expanded);
  w->KV("bytes_factorized", s.bytes_factorized);
  w->EndObject();
}

Status ParseRows(const json::Value& v,
                 std::vector<std::vector<std::string>>* out) {
  if (!v.is_array()) return WrongType("rows", "an array of string arrays");
  out->reserve(v.array.size());
  for (const json::Value& row : v.array) {
    if (!row.is_array()) {
      return WrongType("rows", "an array of string arrays");
    }
    std::vector<std::string> cells;
    cells.reserve(row.array.size());
    for (const json::Value& cell : row.array) {
      if (!cell.is_string()) {
        return WrongType("rows", "an array of string arrays");
      }
      cells.push_back(cell.str_v);
    }
    out->push_back(std::move(cells));
  }
  return Status::OK();
}

}  // namespace

Result<WireRequest> ParseRequest(std::string_view body) {
  AMBER_ASSIGN_OR_RETURN(json::Value doc, json::Parse(body));
  if (!doc.is_object()) {
    return Status::InvalidArgument("request body must be a JSON object");
  }
  WireRequest req;
  bool have_query = false;
  for (const auto& [key, value] : doc.object) {
    if (key == "query") {
      if (!value.is_string()) return WrongType(key, "a string");
      req.query = value.str_v;
      have_query = true;
    } else if (key == "deadline_ms") {
      uint64_t ms = 0;
      AMBER_RETURN_IF_ERROR(ReadUInt(value, key, &ms));
      req.options.deadline = std::chrono::milliseconds(ms);
    } else if (key == "thread_budget") {
      uint64_t budget = 0;
      AMBER_RETURN_IF_ERROR(ReadUInt(value, key, &budget));
      if (budget > static_cast<uint64_t>(std::numeric_limits<int>::max())) {
        return WrongType(key, "a small non-negative integer");
      }
      req.options.thread_budget = static_cast<int>(budget);
    } else if (key == "offset") {
      AMBER_RETURN_IF_ERROR(ReadUInt(value, key, &req.options.offset));
    } else if (key == "limit") {
      AMBER_RETURN_IF_ERROR(ReadUInt(value, key, &req.options.limit));
    } else if (key == "count_only") {
      AMBER_RETURN_IF_ERROR(ReadBool(value, key, &req.options.count_only));
    } else if (key == "bypass_cache") {
      AMBER_RETURN_IF_ERROR(ReadBool(value, key, &req.options.bypass_cache));
    } else if (key == "result_form") {
      if (!value.is_string()) return WrongType(key, "\"rows\" or \"groups\"");
      if (value.str_v == "groups") {
        req.options.want_groups = true;
      } else if (value.str_v != "rows") {
        return WrongType(key, "\"rows\" or \"groups\"");
      }
    } else if (key == "include_stats") {
      AMBER_RETURN_IF_ERROR(ReadBool(value, key, &req.include_stats));
    } else {
      // Reject instead of ignoring: a typo'd option that silently does
      // nothing is the worst protocol failure mode.
      return Status::InvalidArgument("unknown request field \"" + key + "\"");
    }
  }
  if (!have_query) {
    return Status::InvalidArgument("request field \"query\" is required");
  }
  return req;
}

std::string SerializeResponse(const QueryResponse& resp, bool include_stats) {
  json::Writer w;
  w.BeginObject();
  const bool count_form = resp.var_names.empty() && resp.rows.empty() &&
                          !resp.groups_form;
  if (count_form) {
    w.KV("result_form", "count");
    w.KV("total_rows", resp.total_rows);
    w.KV("timed_out", resp.timed_out);
    w.KV("cancelled", resp.cancelled);
  } else if (resp.groups_form) {
    w.KV("result_form", "groups");
    w.Key("var_names");
    WriteStrings(&w, resp.var_names);
    w.Key("slot_list");
    WriteSlotList(&w, resp.slot_list);
    w.Key("groups");
    WriteGroups(&w, resp.slot_list, resp.groups);
    w.KV("total_rows", resp.total_rows);
    w.KV("truncated", resp.truncated);
    w.KV("timed_out", resp.timed_out);
    w.KV("cancelled", resp.cancelled);
  } else {
    w.KV("result_form", "rows");
    w.Key("var_names");
    WriteStrings(&w, resp.var_names);
    w.Key("rows");
    WriteRows(&w, resp.rows);
    w.KV("total_rows", resp.total_rows);
    w.KV("truncated", resp.truncated);
    w.KV("timed_out", resp.timed_out);
    w.KV("cancelled", resp.cancelled);
  }
  if (include_stats) {
    w.KV("cache_hit", resp.cache_hit);
    w.Key("stats");
    WriteExecStats(&w, resp.stats);
  }
  w.EndObject();
  return w.Take();
}

std::string SerializeStreamPage(const StreamPage& page) {
  if (page.rows.empty() && page.groups.empty()) {
    // A pure terminator frame: the summary line is the wire terminator.
    return std::string();
  }
  json::Writer w;
  w.BeginObject();
  w.KV("first_row", page.first_row);
  if (!page.groups.empty()) {
    w.Key("groups");
    // Pages carry no slot_list (it rides in the summary line), so fixed
    // slots ship verbatim — satellite slots as empty strings the client
    // ignores in favor of the lists.
    WriteGroups(&w, /*slot_list=*/{}, page.groups);
  } else {
    w.Key("rows");
    WriteRows(&w, page.rows);
  }
  w.EndObject();
  return w.Take();
}

std::string SerializeStreamSummary(const StreamResponse& resp,
                                   bool include_stats) {
  json::Writer w;
  w.BeginObject();
  w.Key("summary");
  w.BeginObject();
  w.KV("result_form", resp.groups_form ? "groups" : "rows");
  w.Key("var_names");
  WriteStrings(&w, resp.var_names);
  if (resp.groups_form) {
    w.Key("slot_list");
    WriteSlotList(&w, resp.slot_list);
  }
  w.KV("rows_streamed", resp.rows_streamed);
  w.KV("pages", resp.pages);
  w.KV("complete", resp.complete);
  w.KV("cancelled", resp.cancelled);
  w.KV("timed_out", resp.timed_out);
  w.KV("truncated", resp.truncated);
  if (include_stats) {
    w.KV("peak_buffered_bytes", resp.peak_buffered_bytes);
    w.Key("stats");
    WriteExecStats(&w, resp.stats);
  }
  w.EndObject();
  w.EndObject();
  return w.Take();
}

std::string SerializeError(const Status& status) {
  json::Writer w;
  w.BeginObject();
  w.Key("error");
  w.BeginObject();
  w.KV("code", StatusCodeName(status.code()));
  w.KV("http", static_cast<uint64_t>(StatusCodeToHttp(status.code())));
  w.KV("message", status.message());
  w.EndObject();
  w.EndObject();
  return w.Take();
}

std::string ExecStatsToJson(const ExecStats& stats) {
  json::Writer w;
  WriteExecStats(&w, stats);
  return w.Take();
}

std::string ServiceStatsToJson(const ServiceStats& stats) {
  json::Writer w;
  w.BeginObject();
  w.KV("queries", stats.queries);
  w.KV("rejected", stats.rejected);
  w.KV("shutdown_rejects", stats.shutdown_rejects);
  w.KV("timed_out", stats.timed_out);
  w.KV("cancelled", stats.cancelled);
  w.KV("orphaned_flights", stats.orphaned_flights);
  w.KV("cache_hits", stats.cache_hits);
  w.KV("cache_misses", stats.cache_misses);
  w.KV("cache_evictions", stats.cache_evictions);
  w.KV("cache_entries", stats.cache_entries);
  w.KV("bytes_cached", stats.bytes_cached);
  w.KV("single_flight_hits", stats.single_flight_hits);
  w.KV("factorized_hits", stats.factorized_hits);
  w.KV("retries", stats.retries);
  w.KV("shed_thread_budgets", stats.shed_thread_budgets);
  w.KV("rows_served", stats.rows_served);
  w.KV("peak_in_flight", stats.peak_in_flight);
  w.KV("in_flight", stats.in_flight);
  w.KV("queued", stats.queued);
  w.Key("exec");
  WriteExecStats(&w, stats.exec);
  w.EndObject();
  return w.Take();
}

Result<QueryResponse> ParseResponse(std::string_view body) {
  AMBER_ASSIGN_OR_RETURN(json::Value doc, json::Parse(body));
  if (!doc.is_object()) {
    return Status::InvalidArgument("response body must be a JSON object");
  }
  QueryResponse resp;
  const json::Value* form = doc.Find("result_form");
  if (form == nullptr || !form->is_string()) {
    return Status::InvalidArgument("response missing \"result_form\"");
  }
  if (const json::Value* v = doc.Find("total_rows");
      v != nullptr && v->is_uint) {
    resp.total_rows = v->uint_v;
  }
  auto read_flag = [&doc](std::string_view key, bool* out) {
    const json::Value* v = doc.Find(key);
    if (v != nullptr && v->is_bool()) *out = v->bool_v;
  };
  read_flag("truncated", &resp.truncated);
  read_flag("timed_out", &resp.timed_out);
  read_flag("cancelled", &resp.cancelled);
  read_flag("cache_hit", &resp.cache_hit);
  if (form->str_v == "count") return resp;
  if (const json::Value* v = doc.Find("var_names");
      v != nullptr && v->is_array()) {
    for (const json::Value& name : v->array) {
      if (!name.is_string()) {
        return Status::InvalidArgument("var_names must hold strings");
      }
      resp.var_names.push_back(name.str_v);
    }
  }
  if (form->str_v == "rows") {
    if (const json::Value* v = doc.Find("rows"); v != nullptr) {
      AMBER_RETURN_IF_ERROR(ParseRows(*v, &resp.rows));
    }
    return resp;
  }
  if (form->str_v != "groups") {
    return Status::InvalidArgument("unknown result_form \"" + form->str_v +
                                   "\"");
  }
  resp.groups_form = true;
  if (const json::Value* v = doc.Find("slot_list");
      v != nullptr && v->is_array()) {
    for (const json::Value& s : v->array) {
      if (s.is_null()) {
        resp.slot_list.push_back(kNoGroupList);
      } else if (s.is_uint) {
        resp.slot_list.push_back(static_cast<uint32_t>(s.uint_v));
      } else {
        return Status::InvalidArgument("slot_list entries must be null or "
                                       "non-negative integers");
      }
    }
  }
  const json::Value* groups = doc.Find("groups");
  if (groups == nullptr || !groups->is_array()) {
    return Status::InvalidArgument("groups response missing \"groups\"");
  }
  for (const json::Value& gv : groups->array) {
    if (!gv.is_object()) {
      return Status::InvalidArgument("groups entries must be objects");
    }
    ResultGroup g;
    if (const json::Value* f = gv.Find("fixed");
        f != nullptr && f->is_array()) {
      for (const json::Value& cell : f->array) {
        if (cell.is_null()) {
          g.fixed.emplace_back();  // satellite slot
        } else if (cell.is_string()) {
          g.fixed.push_back(cell.str_v);
        } else {
          return Status::InvalidArgument("group fixed slots must be "
                                         "strings or null");
        }
      }
    }
    if (const json::Value* l = gv.Find("lists");
        l != nullptr && l->is_array()) {
      AMBER_RETURN_IF_ERROR(ParseRows(*l, &g.lists));
    }
    if (const json::Value* m = gv.Find("multiplicity");
        m != nullptr && m->is_uint) {
      g.multiplicity = m->uint_v;
    }
    resp.groups.push_back(std::move(g));
  }
  return resp;
}

std::vector<std::vector<std::string>> ExpandGroups(
    const std::vector<uint32_t>& slot_list,
    const std::vector<ResultGroup>& groups, uint64_t limit_rows) {
  std::vector<std::vector<std::string>> rows;
  const uint64_t cap =
      limit_rows == 0 ? std::numeric_limits<uint64_t>::max() : limit_rows;
  std::vector<uint64_t> pick;
  for (const ResultGroup& g : groups) {
    if (rows.size() >= cap) break;
    bool any_empty = false;
    for (const std::vector<std::string>& list : g.lists) {
      if (list.empty()) any_empty = true;
    }
    if (any_empty) continue;  // zero-cardinality group (defensive)
    pick.assign(g.lists.size(), 0);
    while (true) {
      std::vector<std::string> row(slot_list.size());
      for (size_t i = 0; i < slot_list.size(); ++i) {
        if (slot_list[i] == kNoGroupList) {
          row[i] = i < g.fixed.size() ? g.fixed[i] : std::string();
        } else if (slot_list[i] < g.lists.size()) {
          row[i] = g.lists[slot_list[i]][pick[slot_list[i]]];
        }
      }
      for (uint64_t rep = 0; rep < g.multiplicity && rows.size() < cap;
           ++rep) {
        rows.push_back(row);
      }
      if (rows.size() >= cap) break;
      // The engine's expansion order; a wrap means the group is exhausted.
      if (!OdometerStep(pick, g.lists)) break;
    }
  }
  return rows;
}

}  // namespace wire
}  // namespace amber
