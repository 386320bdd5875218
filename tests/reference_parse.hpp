#pragma once
/// \file reference_parse.hpp
/// The serve-line parser as the library ran it before its single-pass
/// scanner: every line through the json::Reader DOM, then the
/// control-verb lookup or extract_request over the parsed object.
/// ccov::engine::parse_serve_line must reproduce its return value, error
/// text, verb and every CoverRequest field; the unit tests in
/// engine_test.cpp and the fuzz_serve_line harness compare against it.

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "ccov/engine/request.hpp"
#include "ccov/engine/serve.hpp"
#include "ccov/util/json.hpp"

namespace ccov::engine::reference {

namespace json = ccov::util::json;

inline bool to_uint(const json::Value& v, std::uint64_t max,
                    std::uint64_t* out, std::string* error, const std::string& key) {
  if (v.type != json::Value::Type::kInt || v.integer < 0 ||
      static_cast<std::uint64_t>(v.integer) > max) {
    *error = "field '" + key + "' must be a non-negative integer";
    return false;
  }
  *out = static_cast<std::uint64_t>(v.integer);
  return true;
}

inline bool extract_request(const json::Value& obj, CoverRequest* req,
                            std::string* error) {
  bool have_algo = false, have_n = false;
  for (const auto& [key, val] : obj.object) {
    std::uint64_t u = 0;
    if (key == "algo" || key == "algorithm") {
      if (val.type != json::Value::Type::kString) {
        *error = "field 'algo' must be a string";
        return false;
      }
      req->algorithm = val.string;
      have_algo = true;
    } else if (key == "n") {
      if (!to_uint(val, std::numeric_limits<std::uint32_t>::max(), &u, error,
                   key))
        return false;
      req->n = static_cast<std::uint32_t>(u);
      have_n = true;
    } else if (key == "budget") {
      if (!to_uint(val, std::numeric_limits<std::uint64_t>::max(), &u, error,
                   key))
        return false;
      req->budget = u;
    } else if (key == "lambda") {
      if (!to_uint(val, std::numeric_limits<std::uint32_t>::max(), &u, error,
                   key))
        return false;
      req->lambda = static_cast<std::uint32_t>(u);
    } else if (key == "threads") {
      if (!to_uint(val, 4096, &u, error, key)) return false;
      req->threads = static_cast<std::size_t>(u);
    } else if (key == "max_nodes") {
      if (!to_uint(val, std::numeric_limits<std::uint64_t>::max(), &u, error,
                   key))
        return false;
      req->solver.max_nodes = u;
    } else if (key == "max_cycle_len") {
      if (!to_uint(val, std::numeric_limits<std::uint32_t>::max(), &u, error,
                   key))
        return false;
      req->solver.max_cycle_len = static_cast<std::uint32_t>(u);
    } else if (key == "deadline_ms") {
      // Capped at ~49 days: effectively unbounded, but small enough that
      // the absolute steady_clock deadline can never overflow.
      if (!to_uint(val, std::numeric_limits<std::uint32_t>::max(), &u, error,
                   key))
        return false;
      req->deadline_ms = u;
    } else if (key == "validate") {
      if (val.type != json::Value::Type::kBool) {
        *error = "field 'validate' must be a boolean";
        return false;
      }
      req->validate = val.boolean;
    } else if (key == "demand") {
      if (val.type != json::Value::Type::kArray) {
        *error = "field 'demand' must be an array of [u,v] pairs";
        return false;
      }
      for (const json::Value& pair : val.array) {
        if (pair.type != json::Value::Type::kArray ||
            pair.array.size() != 2) {
          *error = "field 'demand' must be an array of [u,v] pairs";
          return false;
        }
        std::uint64_t u0 = 0, v0 = 0;
        if (!to_uint(pair.array[0], std::numeric_limits<std::uint32_t>::max(),
                     &u0, error, key) ||
            !to_uint(pair.array[1], std::numeric_limits<std::uint32_t>::max(),
                     &v0, error, key))
          return false;
        req->demand.push_back({static_cast<std::uint32_t>(u0),
                               static_cast<std::uint32_t>(v0)});
      }
    } else {
      *error = "unknown field '" + key + "'";
      return false;
    }
  }
  if (!have_algo) {
    *error = "missing required field 'algo'";
    return false;
  }
  if (!have_n) {
    *error = "missing required field 'n'";
    return false;
  }
  return true;
}

inline bool parse_serve_line(const std::string& line, ServeCommand* cmd,
                             std::string* error) {
  error->clear();
  json::Value root;
  json::Reader reader(line);
  if (!reader.parse(&root, error)) return false;
  if (root.type != json::Value::Type::kObject) {
    *error = "each line must be a JSON object";
    return false;
  }
  for (const auto& [key, val] : root.object) {
    if (key != "op") continue;
    if (val.type != json::Value::Type::kString) {
      *error = "field 'op' must be a string";
      return false;
    }
    if (root.object.size() != 1) {
      *error = "control verbs take no other fields";
      return false;
    }
    const ServeVerb* verb = ServeVerbRegistry::global().find(val.string);
    if (!verb) {
      *error = "unknown control verb '" + val.string + "' (valid: ";
      const std::vector<std::string> names =
          ServeVerbRegistry::global().names();
      for (std::size_t i = 0; i < names.size(); ++i)
        *error += (i ? ", " : "") + names[i];
      *error += ")";
      return false;
    }
    cmd->verb = verb;
    return true;
  }
  cmd->verb = nullptr;
  cmd->req = CoverRequest{};
  return extract_request(root, &cmd->req, error);
}

/// Everything one parse decides, as one line of text: the return value,
/// the error string, the verb pointer and every CoverRequest field. The
/// command starts from a stale, non-default state, so what a parser
/// leaves untouched is compared too. Two parsers agree on `line` iff
/// their outcomes are equal strings, and a mismatch prints both sides.
template <typename Parse>
std::string parse_outcome(Parse parse, const std::string& line) {
  ServeCommand cmd;
  cmd.verb = ServeVerbRegistry::global().find("stats");
  CoverRequest& r = cmd.req;
  r.algorithm = "stale";
  r.n = 7;
  r.budget = r.lambda = r.threads = r.deadline_ms = 3;
  r.solver.max_nodes = r.solver.max_cycle_len = 5;
  r.solver.use_capacity_prune = r.validate = false;
  r.demand = {{1, 2}};
  std::string error = "stale";
  const bool ok = parse(line, &cmd, &error);
  std::ostringstream os;
  os << "ok=" << ok << " error='" << error
     << "' verb=" << static_cast<const void*>(cmd.verb) << " algo='"
     << r.algorithm << "' n=" << r.n << " budget=" << r.budget
     << " lambda=" << r.lambda << " threads=" << r.threads
     << " max_nodes=" << r.solver.max_nodes
     << " max_cycle_len=" << r.solver.max_cycle_len
     << " prune=" << r.solver.use_capacity_prune
     << " solver_deadline=" << r.solver.deadline.set()
     << " solver_cancel=" << static_cast<const void*>(r.solver.cancel)
     << " validate=" << r.validate << " deadline_ms=" << r.deadline_ms
     << " deadline=" << r.deadline.set()
     << " cancel=" << static_cast<const void*>(r.cancel) << " demand=[";
  for (const graph::Edge& e : r.demand) os << "[" << e.u << "," << e.v << "]";
  os << "]";
  return os.str();
}

}  // namespace ccov::engine::reference
