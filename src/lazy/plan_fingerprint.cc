#include "lazy/plan_fingerprint.h"

#include <unordered_set>

#include "common/hash.h"
#include "io/columnar.h"
#include "io/csv.h"
#include "io/fingerprint.h"

namespace lafp::lazy {

namespace {

using Schema = std::vector<std::pair<std::string, std::string>>;

const std::string* Canon(const Schema& schema, const std::string& visible) {
  for (const auto& [v, c] : schema) {
    if (v == visible) return &c;
  }
  return nullptr;
}

bool HasCanonical(const Schema& schema, const std::string& canonical) {
  for (const auto& [v, c] : schema) {
    if (c == canonical) return true;
  }
  return false;
}

bool IdentityNames(const std::optional<Schema>& schema) {
  if (!schema.has_value()) return true;
  for (const auto& [v, c] : *schema) {
    if (v != c) return false;
  }
  return true;
}

/// Canonical-string field separator (cannot occur in quoted CSV names in
/// a way that matters: collisions would need identical op kinds too).
constexpr char kSep = '\x1f';

void Append(std::string* cs, const std::string& s) {
  *cs += s;
  *cs += kSep;
}

void Append(std::string* cs, int64_t v) { Append(cs, std::to_string(v)); }

/// Canonical form of a referenced column name: mapped through a known
/// input schema, raw otherwise. False when the name is missing from a
/// known schema (the op would KeyError at runtime — never cache that).
bool AppendName(std::string* cs, const std::optional<Schema>& in_schema,
                const std::string& name) {
  if (!in_schema.has_value()) {
    Append(cs, name);
    return true;
  }
  const std::string* c = Canon(*in_schema, name);
  if (c == nullptr) return false;
  Append(cs, *c);
  return true;
}

void AppendScalar(std::string* cs, const df::Scalar& s) {
  Append(cs, static_cast<int64_t>(s.type()));
  Append(cs, s.ToString());
}

/// Output schema of a series op that names its result after its input
/// column (compare/arith/str/dt/... — see exec/eager_ops.cc SeriesName).
/// False when the input statically cannot be viewed as a series.
bool SeriesSchema(const PlanFingerprint& in, std::optional<Schema>* out) {
  if (in.scalar) return false;
  if (!in.schema.has_value()) {
    out->reset();
    return true;
  }
  if (in.schema->size() != 1) return false;
  *out = in.schema;
  return true;
}

Schema IdentitySchema(const std::vector<std::string>& names) {
  Schema s;
  s.reserve(names.size());
  for (const auto& n : names) s.emplace_back(n, n);
  return s;
}

}  // namespace

bool PlanFingerprint::identity_names() const { return IdentityNames(schema); }

const PlanFingerprint& PlanFingerprinter::Fingerprint(
    const TaskNodePtr& node) {
  auto it = memo_.find(node.get());
  if (it != memo_.end()) return it->second;
  // Dependencies-first order keeps Compute() non-recursive: every input
  // is memoized before its consumer.
  for (const auto& n : TaskGraph::TopoSort({node})) {
    if (memo_.find(n.get()) == memo_.end()) {
      memo_.emplace(n.get(), Compute(n));
    }
  }
  return memo_.at(node.get());
}

PlanFingerprint PlanFingerprinter::Poison(const TaskNodePtr& node) {
  PlanFingerprint fp;
  fp.cacheable = false;
  fp.plan_hash = HashCombine(
      0x9d15caffe1dULL,
      HashCombine(++poison_seq_, static_cast<uint64_t>(node->id)));
  fp.input_hash = fp.plan_hash;
  return fp;
}

std::optional<uint64_t> PlanFingerprinter::FileHash(const std::string& path) {
  auto it = file_memo_.find(path);
  if (it != file_memo_.end()) return it->second;
  std::optional<uint64_t> hash;
  // Dispatches on the file's magic: LFC files key on their stored
  // footer checksum, everything else on the sampled-content hash.
  auto fp = io::FingerprintInputFile(path);
  if (fp.ok()) hash = fp->hash;
  file_memo_.emplace(path, hash);
  return hash;
}

const std::optional<std::vector<std::string>>& PlanFingerprinter::Header(
    const std::string& path, char delimiter) {
  auto it = header_memo_.find(path);
  if (it != header_memo_.end()) return it->second;
  std::optional<std::vector<std::string>> header;
  auto names = io::ReadCsvHeaderNames(path, delimiter);
  if (names.ok()) {
    std::unordered_set<std::string> seen;
    bool unique = true;
    for (const auto& n : *names) unique &= seen.insert(n).second;
    if (unique) header = *std::move(names);
  }
  return header_memo_.emplace(path, std::move(header)).first->second;
}

const std::optional<std::vector<std::string>>& PlanFingerprinter::LfcColumns(
    const std::string& path) {
  auto it = lfc_header_memo_.find(path);
  if (it != lfc_header_memo_.end()) return it->second;
  std::optional<std::vector<std::string>> names;
  auto info = io::ReadLfcInfo(path);
  if (info.ok()) {
    names.emplace();
    names->reserve(info->columns.size());
    for (const auto& c : info->columns) names->push_back(c.name);
  }
  return lfc_header_memo_.emplace(path, std::move(names)).first->second;
}

PlanFingerprint PlanFingerprinter::Compute(const TaskNodePtr& node) {
  using exec::OpKind;
  const exec::OpDesc& d = node->desc;
  if (d.kind == OpKind::kPrint) return Poison(node);
  if (d.kind == OpKind::kMaterialized) {
    // A spliced node reuses the fingerprint its subtree carried at splice
    // time, so later rounds over a partially spliced graph hash exactly
    // like the original plan.
    if (node->spliced_fp != nullptr) return *node->spliced_fp;
    return Poison(node);
  }

  std::vector<const PlanFingerprint*> ins;
  ins.reserve(node->inputs.size());
  bool inputs_cacheable = true;
  for (const auto& in : node->inputs) {
    const PlanFingerprint& f = memo_.at(in.get());
    inputs_cacheable &= f.cacheable;
    ins.push_back(&f);
  }
  const std::optional<Schema> no_schema;
  const std::optional<Schema>& in0 =
      ins.empty() ? no_schema : ins[0]->schema;

  // Ops whose output column names we cannot model are sound only when no
  // input carries a non-identity canonicalization (then raw names were
  // hashed everywhere and any equal-hash plan used the same names).
  auto all_inputs_identity = [&]() {
    for (const auto* f : ins) {
      if (!f->identity_names()) return false;
    }
    return true;
  };

  PlanFingerprint fp;
  fp.cacheable = inputs_cacheable;
  std::string cs;
  Append(&cs, static_cast<int64_t>(d.kind));

  switch (d.kind) {
    case OpKind::kReadCsv: {
      auto file = FileHash(d.path);
      if (!file.has_value()) return Poison(node);
      fp.input_hash = *file;
      for (const auto& c : d.csv_options.usecols) Append(&cs, c);
      for (const auto& [k, t] : d.csv_options.dtypes) {
        Append(&cs, k);
        Append(&cs, static_cast<int64_t>(t));
      }
      Append(&cs, std::string(1, d.csv_options.delimiter));
      Append(&cs, static_cast<int64_t>(d.csv_options.nrows));
      Append(&cs, static_cast<int64_t>(d.csv_options.infer_rows));
      const auto& header = Header(d.path, d.csv_options.delimiter);
      if (!d.csv_options.usecols.empty()) {
        fp.schema = IdentitySchema(d.csv_options.usecols);
      } else if (header.has_value()) {
        fp.schema = IdentitySchema(*header);
      }
      break;
    }
    case OpKind::kReadLfc: {
      auto file = FileHash(d.path);
      if (!file.has_value()) return Poison(node);
      fp.input_hash = *file;
      for (const auto& c : d.lfc_options.usecols) Append(&cs, c);
      Append(&cs, static_cast<int64_t>(d.lfc_options.nrows));
      Append(&cs, d.lfc_options.prune_enabled ? 1 : 0);
      // Prune conjuncts change the node's output (fewer chunks), so a
      // pruned and an unpruned scan must never share a fingerprint.
      for (const auto& p : d.lfc_options.prune) {
        Append(&cs, p.column);
        Append(&cs, static_cast<int64_t>(p.op));
        AppendScalar(&cs, p.scalar);
      }
      if (!d.lfc_options.usecols.empty()) {
        fp.schema = IdentitySchema(d.lfc_options.usecols);
      } else {
        const auto& names = LfcColumns(d.path);
        if (names.has_value()) fp.schema = IdentitySchema(*names);
      }
      break;
    }
    case OpKind::kSelect: {
      for (const auto& c : d.columns) {
        if (!AppendName(&cs, in0, c)) return Poison(node);
      }
      // Output names are the selected names; canonical via the input map
      // (identity when the input schema is unknown — raw names hashed).
      Schema s;
      for (const auto& c : d.columns) {
        const std::string* canon =
            in0.has_value() ? Canon(*in0, c) : nullptr;
        s.emplace_back(c, canon != nullptr ? *canon : c);
      }
      fp.schema = std::move(s);
      break;
    }
    case OpKind::kGetColumn: {
      if (!AppendName(&cs, in0, d.column)) return Poison(node);
      const std::string* canon =
          in0.has_value() ? Canon(*in0, d.column) : nullptr;
      fp.schema = Schema{{d.column, canon != nullptr ? *canon : d.column}};
      break;
    }
    case OpKind::kFilter:
      fp.schema = in0;
      break;
    case OpKind::kCompare:
      Append(&cs, static_cast<int64_t>(d.compare_op));
      Append(&cs, d.has_scalar ? 1 : 0);
      if (d.has_scalar) AppendScalar(&cs, d.scalar);
      if (!SeriesSchema(*ins[0], &fp.schema)) return Poison(node);
      break;
    case OpKind::kArith: {
      Append(&cs, static_cast<int64_t>(d.arith_op));
      Append(&cs, d.scalar_on_left ? 1 : 0);
      Append(&cs, d.has_scalar ? 1 : 0);
      if (d.has_scalar) AppendScalar(&cs, d.scalar);
      // The output series is named after the column-valued operand
      // (eager_ops.cc: a runtime-scalar lhs takes the rhs name).
      const PlanFingerprint* src = ins[0];
      if (!d.has_scalar && ins.size() >= 2 && ins[0]->scalar) src = ins[1];
      if (!SeriesSchema(*src, &fp.schema)) return Poison(node);
      break;
    }
    case OpKind::kBooleanAnd:
    case OpKind::kBooleanOr:
    case OpKind::kBooleanNot:
    case OpKind::kIsNull:
    case OpKind::kToDatetime:
    case OpKind::kUnique:
      if (!SeriesSchema(*ins[0], &fp.schema)) return Poison(node);
      break;
    case OpKind::kStrContains:
      Append(&cs, d.str_arg);
      if (!SeriesSchema(*ins[0], &fp.schema)) return Poison(node);
      break;
    case OpKind::kIsIn:
      for (const auto& s : d.scalar_list) AppendScalar(&cs, s);
      if (!SeriesSchema(*ins[0], &fp.schema)) return Poison(node);
      break;
    case OpKind::kAbs:
      if (!SeriesSchema(*ins[0], &fp.schema)) return Poison(node);
      break;
    case OpKind::kRound:
      Append(&cs, d.digits);
      if (!SeriesSchema(*ins[0], &fp.schema)) return Poison(node);
      break;
    case OpKind::kAsType:
      Append(&cs, static_cast<int64_t>(d.dtype));
      if (!SeriesSchema(*ins[0], &fp.schema)) return Poison(node);
      break;
    case OpKind::kDtAccessor:
      Append(&cs, static_cast<int64_t>(d.dt_field));
      if (!SeriesSchema(*ins[0], &fp.schema)) return Poison(node);
      break;
    case OpKind::kSetColumn: {
      Append(&cs, d.has_scalar ? 1 : 0);
      if (d.has_scalar) AppendScalar(&cs, d.scalar);
      if (!in0.has_value()) {
        Append(&cs, d.column);
        break;  // schema stays unknown
      }
      Schema s = *in0;
      const std::string* existing = Canon(s, d.column);
      if (existing != nullptr) {
        Append(&cs, *existing);  // overwrite keeps name and position
      } else {
        // Fresh column: its visible name becomes its canonical name,
        // which must not collide with an existing canonical slot.
        if (HasCanonical(s, d.column)) return Poison(node);
        Append(&cs, d.column);
        s.emplace_back(d.column, d.column);
      }
      fp.schema = std::move(s);
      break;
    }
    case OpKind::kDropColumns: {
      if (!in0.has_value()) {
        for (const auto& c : d.columns) Append(&cs, c);
        break;
      }
      Schema s = *in0;
      for (const auto& c : d.columns) {
        if (!AppendName(&cs, in0, c)) return Poison(node);
        for (auto it = s.begin(); it != s.end(); ++it) {
          if (it->first == c) {
            s.erase(it);
            break;
          }
        }
      }
      fp.schema = std::move(s);
      break;
    }
    case OpKind::kRename: {
      if (!in0.has_value()) {
        // Unknown input schema implies identity canonicalization below;
        // hash the rename structurally with raw names.
        for (const auto& [k, v] : d.rename) {
          Append(&cs, k);
          Append(&cs, v);
        }
        break;
      }
      // Try to normalize the rename away entirely: the engine ignores
      // unknown keys, so only keys present in the schema act. Safe when
      // every target is a brand-new name (no chains, swaps, or
      // collisions) — then the node hashes exactly like its input and
      // only the visible->canonical map changes.
      Schema s = *in0;
      bool safe = true;
      std::unordered_set<std::string> targets;
      std::vector<std::pair<std::string, std::string>> effective;
      for (const auto& [k, v] : d.rename) {
        if (Canon(s, k) == nullptr) continue;  // ignored key
        if (k == v) continue;                  // no-op entry
        if (Canon(s, v) != nullptr || !targets.insert(v).second) {
          safe = false;
          break;
        }
        effective.emplace_back(k, v);
      }
      if (safe) {
        for (auto& [visible, canonical] : s) {
          for (const auto& [k, v] : effective) {
            if (visible == k) {
              visible = v;
              break;
            }
          }
        }
        PlanFingerprint out = *ins[0];
        out.cacheable = inputs_cacheable;
        out.schema = std::move(s);
        out.scalar = false;
        return out;  // hash identical to the input: the rename vanishes
      }
      // Order-dependent rename (swap/chain): only structurally sound
      // when nothing upstream was name-normalized.
      if (!ins[0]->identity_names()) return Poison(node);
      for (const auto& [k, v] : d.rename) {
        Append(&cs, k);
        Append(&cs, v);
      }
      break;  // schema unknown
    }
    case OpKind::kFillNa:
      AppendScalar(&cs, d.scalar);
      fp.schema = in0;
      break;
    case OpKind::kDropNa:
      fp.schema = in0;
      break;
    case OpKind::kGroupByAgg: {
      Schema s;
      std::unordered_set<std::string> visible_seen, canonical_seen;
      bool ok = true;
      for (const auto& k : d.columns) {
        if (!AppendName(&cs, in0, k)) return Poison(node);
        const std::string* canon = in0.has_value() ? Canon(*in0, k) : nullptr;
        const std::string& c = canon != nullptr ? *canon : k;
        ok &= visible_seen.insert(k).second && canonical_seen.insert(c).second;
        s.emplace_back(k, c);
      }
      for (const auto& a : d.aggs) {
        if (!AppendName(&cs, in0, a.column)) return Poison(node);
        Append(&cs, static_cast<int64_t>(a.func));
        Append(&cs, a.out_name);
        ok &= visible_seen.insert(a.out_name).second &&
              canonical_seen.insert(a.out_name).second;
        s.emplace_back(a.out_name, a.out_name);
      }
      if (!ok) return Poison(node);  // ambiguous output naming
      fp.schema = std::move(s);
      break;
    }
    case OpKind::kReduce:
      Append(&cs, static_cast<int64_t>(d.agg_func));
      if (ins[0]->scalar ||
          (in0.has_value() && in0->size() != 1)) {
        return Poison(node);
      }
      fp.scalar = true;
      fp.schema = Schema{};
      break;
    case OpKind::kLen:
      fp.scalar = true;
      fp.schema = Schema{};
      break;
    case OpKind::kMerge:
      if (!all_inputs_identity()) return Poison(node);
      Append(&cs, static_cast<int64_t>(d.join_type));
      for (const auto& c : d.columns) Append(&cs, c);
      break;  // suffix naming unmodeled: schema unknown
    case OpKind::kSortValues:
      for (const auto& c : d.columns) {
        if (!AppendName(&cs, in0, c)) return Poison(node);
      }
      for (bool b : d.ascending) Append(&cs, b ? 1 : 0);
      fp.schema = in0;
      break;
    case OpKind::kDropDuplicates:
      for (const auto& c : d.columns) {
        if (!AppendName(&cs, in0, c)) return Poison(node);
      }
      fp.schema = in0;
      break;
    case OpKind::kValueCounts:
    case OpKind::kDescribe:
      if (!all_inputs_identity()) return Poison(node);
      break;  // engine-derived names: schema unknown
    case OpKind::kHead:
      Append(&cs, static_cast<int64_t>(d.n));
      fp.schema = in0;
      break;
    case OpKind::kConcat:
      if (!all_inputs_identity()) return Poison(node);
      break;  // union naming: schema unknown
    case OpKind::kPrint:
    case OpKind::kMaterialized:
      return Poison(node);  // handled above; keep the switch exhaustive
    default:
      return Poison(node);  // unknown future op
  }

  fp.plan_hash = Fnv1a64(cs);
  for (const auto* in : ins) {
    fp.plan_hash = HashCombine(fp.plan_hash, in->plan_hash);
    fp.input_hash = HashCombine(fp.input_hash, in->input_hash);
  }
  return fp;
}

}  // namespace lafp::lazy
