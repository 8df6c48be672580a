#include "plan/operator_tree.h"

#include <algorithm>
#include <functional>
#include <map>
#include <queue>
#include <sstream>

namespace hierdb::plan {

uint32_t PhysicalPlan::num_scans() const {
  uint32_t n = 0;
  for (const auto& o : ops) {
    if (o.IsScan()) ++n;
  }
  return n;
}

uint32_t PhysicalPlan::num_joins() const {
  uint32_t n = 0;
  for (const auto& o : ops) {
    if (o.IsProbe()) ++n;
  }
  return n;
}

Status PhysicalPlan::Validate() const {
  std::vector<uint32_t> chain_hits(ops.size(), 0);
  for (const auto& ch : chains) {
    if (ch.ops.empty()) return Status::Internal("empty pipeline chain");
    if (!ops[ch.ops[0]].IsScan()) {
      return Status::Internal("chain must start with a scan");
    }
    for (OpId o : ch.ops) {
      if (o >= ops.size()) return Status::Internal("chain op out of range");
      ++chain_hits[o];
      if (ops[o].chain != ch.id) {
        return Status::Internal("op/chain index mismatch");
      }
    }
    // Interior ops must pipeline (probes or the partial-agg stage); the
    // terminal may be blocking (a build or the aggregation merge).
    for (size_t i = 1; i + 1 < ch.ops.size(); ++i) {
      if (!ops[ch.ops[i]].IsProbe() &&
          ops[ch.ops[i]].kind != OpKind::kAggPartial) {
        return Status::Internal("chain interior must pipeline");
      }
    }
  }
  for (size_t i = 0; i < ops.size(); ++i) {
    if (chain_hits[i] != 1) {
      return Status::Internal("every op must be in exactly one chain");
    }
  }
  for (const auto& o : ops) {
    if (o.IsProbe()) {
      if (o.build_op == kNoOp || !ops[o.build_op].IsBuild()) {
        return Status::Internal("probe without matching build");
      }
      if (ops[o.build_op].probe_op != o.id) {
        return Status::Internal("build/probe back-link mismatch");
      }
    }
    if (o.IsBlocking() && o.output_card != 0.0) {
      return Status::Internal("blocking output must carry no tuples");
    }
    if (!o.IsScan() && o.input == kNoOp) {
      return Status::Internal("non-scan op must have a dataflow input");
    }
  }
  for (const auto& c : constraints) {
    if (c.before >= ops.size() || c.after >= ops.size() ||
        c.before == c.after) {
      return Status::Internal("bad scheduling constraint");
    }
  }
  if (chain_order.size() != chains.size()) {
    return Status::Internal("chain order must cover all chains");
  }
  return Status::OK();
}

std::string PhysicalPlan::ToString() const {
  std::ostringstream os;
  os << "PhysicalPlan{" << ops.size() << " ops, " << chains.size()
     << " chains}\n";
  for (const auto& ch : chains) {
    os << "  chain " << ch.id << ":";
    for (OpId o : ch.ops) os << " " << ops[o].label;
    os << "\n";
  }
  os << "  order:";
  for (uint32_t c : chain_order) os << " " << c;
  os << "\n  constraints:\n";
  for (const auto& c : constraints) {
    const char* origin = c.origin == SchedConstraint::Origin::kHash ? "hash"
                         : c.origin == SchedConstraint::Origin::kHeuristic1
                             ? "H1"
                             : "H2";
    os << "    " << ops[c.before].label << " < " << ops[c.after].label << "  ["
       << origin << "]\n";
  }
  return os.str();
}

namespace {

struct ExpandResult {
  OpId out_op;      // operator producing the subtree's pipelined output
  double out_card;  // its output cardinality
};

class Expander {
 public:
  Expander(const JoinTree& tree, const catalog::Catalog& cat,
           const ExpandOptions& options)
      : tree_(tree), cat_(cat), options_(options) {}

  PhysicalPlan Run() {
    HIERDB_CHECK(tree_.root >= 0, "empty join tree");
    ExpandResult root = Expand(tree_.root);
    if (options_.aggregate) AppendAggregation(root);
    BuildChains();
    OrderChains();
    AddConstraints();
    return std::move(plan_);
  }

 private:
  OpId NewOp(OpKind kind, std::string label) {
    Operator o;
    o.id = static_cast<OpId>(plan_.ops.size());
    o.kind = kind;
    o.label = std::move(label);
    plan_.ops.push_back(std::move(o));
    return plan_.ops.back().id;
  }

  /// Two-phase aggregation over the root's output: a pipelined partial
  /// stage (consumes every result tuple, emits the estimated partial
  /// groups) and a blocking merge terminal.
  void AppendAggregation(const ExpandResult& root) {
    double groups = std::max(1.0, options_.agg_groups_est);
    groups = std::min(groups, std::max(1.0, root.out_card));
    OpId ap = NewOp(OpKind::kAggPartial, "AggPartial");
    OpId am = NewOp(OpKind::kAggMerge, "AggMerge");
    plan_.ops[ap].input = root.out_op;
    plan_.ops[ap].input_card = root.out_card;
    plan_.ops[ap].output_card = groups;
    plan_.ops[ap].rels = plan_.ops[root.out_op].rels;
    plan_.ops[ap].consumer = am;
    plan_.ops[root.out_op].consumer = ap;
    plan_.ops[am].input = ap;
    plan_.ops[am].input_card = groups;
    plan_.ops[am].output_card = 0.0;  // blocking terminal
    plan_.ops[am].rels = plan_.ops[ap].rels;
  }

  ExpandResult Expand(int32_t tn) {
    const JoinTreeNode& node = tree_.nodes[tn];
    if (node.IsLeaf()) {
      OpId s = NewOp(OpKind::kScan, "Scan(" + cat_.relation(node.rel).name +
                                        ")");
      plan_.ops[s].rel = node.rel;
      plan_.ops[s].rels = RelBit(node.rel);
      double sel = node.rel < options_.scan_filter_sel.size()
                       ? options_.scan_filter_sel[node.rel]
                       : 1.0;
      plan_.ops[s].filter_sel = sel;
      plan_.ops[s].output_card =
          static_cast<double>(cat_.relation(node.rel).cardinality) * sel;
      return {s, plan_.ops[s].output_card};
    }

    ExpandResult l = Expand(node.left);
    ExpandResult r = Expand(node.right);
    // Build-side choice: the smaller input (classic heuristic) or the
    // tree's right child (shape-preserving; see ExpandOptions).
    bool right_builds =
        options_.build_on_right_child || l.out_card > r.out_card;
    ExpandResult build_side = right_builds ? r : l;
    ExpandResult probe_side = right_builds ? l : r;

    uint32_t jid = ++join_counter_;
    OpId b = NewOp(OpKind::kBuild, "Build" + std::to_string(jid));
    OpId p = NewOp(OpKind::kProbe, "Probe" + std::to_string(jid));

    plan_.ops[b].input = build_side.out_op;
    plan_.ops[b].input_card = build_side.out_card;
    plan_.ops[b].output_card = 0.0;
    plan_.ops[b].probe_op = p;
    plan_.ops[b].rels = plan_.ops[build_side.out_op].rels;
    plan_.ops[build_side.out_op].consumer = b;

    plan_.ops[p].input = probe_side.out_op;
    plan_.ops[p].input_card = probe_side.out_card;
    plan_.ops[p].output_card = node.card;
    plan_.ops[p].build_op = b;
    plan_.ops[p].rels =
        plan_.ops[probe_side.out_op].rels | plan_.ops[b].rels;
    plan_.ops[probe_side.out_op].consumer = p;

    return {p, node.card};
  }

  void BuildChains() {
    for (const auto& o : plan_.ops) {
      if (!o.IsScan()) continue;
      PipelineChain ch;
      ch.id = static_cast<uint32_t>(plan_.chains.size());
      OpId cur = o.id;
      while (true) {
        ch.ops.push_back(cur);
        plan_.ops[cur].chain = ch.id;
        if (plan_.ops[cur].IsBlocking()) break;  // blocking output ends chain
        OpId next = plan_.ops[cur].consumer;
        if (next == kNoOp) break;  // root probe
        if (plan_.ops[next].IsProbe() &&
            plan_.ops[next].input != cur) {
          // `cur` feeds the probe's hash table side only through its build;
          // cannot happen because builds end chains, but guard anyway.
          break;
        }
        cur = next;
      }
      plan_.chains.push_back(std::move(ch));
    }
  }

  // Chain dependency: a chain ending in Build_i must run before the chain
  // containing Probe_i (its hash table consumer), and before any chain
  // whose probes need it (H1 handles per-probe builds). Kahn's algorithm
  // with smallest-id tie-break gives a deterministic one-at-a-time order.
  void OrderChains() {
    size_t n = plan_.chains.size();
    std::vector<std::vector<uint32_t>> succ(n);
    std::vector<uint32_t> indeg(n, 0);
    for (const auto& ch : plan_.chains) {
      OpId last = ch.ops.back();
      if (plan_.ops[last].IsBuild()) {
        uint32_t consumer_chain = plan_.ops[plan_.ops[last].probe_op].chain;
        succ[ch.id].push_back(consumer_chain);
        ++indeg[consumer_chain];
      }
    }
    std::priority_queue<uint32_t, std::vector<uint32_t>,
                        std::greater<uint32_t>>
        ready;
    for (uint32_t i = 0; i < n; ++i) {
      if (indeg[i] == 0) ready.push(i);
    }
    while (!ready.empty()) {
      uint32_t c = ready.top();
      ready.pop();
      plan_.chain_order.push_back(c);
      for (uint32_t s : succ[c]) {
        if (--indeg[s] == 0) ready.push(s);
      }
    }
    HIERDB_CHECK(plan_.chain_order.size() == n, "cyclic chain dependencies");
  }

  void AddConstraints() {
    // Hash constraints: Build_i < Probe_i.
    for (const auto& o : plan_.ops) {
      if (o.IsBuild()) {
        plan_.constraints.push_back(
            {o.id, o.probe_op, SchedConstraint::Origin::kHash});
      }
    }
    // H1: all builds probed by a chain precede the chain's driving scan.
    if (options_.apply_h1) {
      for (const auto& ch : plan_.chains) {
        OpId driving_scan = ch.ops[0];
        for (OpId o : ch.ops) {
          if (plan_.ops[o].IsProbe()) {
            plan_.constraints.push_back(
                {plan_.ops[o].build_op, driving_scan,
                 SchedConstraint::Origin::kHeuristic1});
          }
        }
      }
    }
    // H2: one chain at a time, in chain_order.
    if (options_.serialize_chains) {
      for (size_t i = 1; i < plan_.chain_order.size(); ++i) {
        OpId prev_last = plan_.chains[plan_.chain_order[i - 1]].ops.back();
        OpId next_scan = plan_.chains[plan_.chain_order[i]].ops[0];
        plan_.constraints.push_back(
            {prev_last, next_scan, SchedConstraint::Origin::kHeuristic2});
      }
    }
  }

  const JoinTree& tree_;
  const catalog::Catalog& cat_;
  ExpandOptions options_;
  PhysicalPlan plan_;
  uint32_t join_counter_ = 0;
};

}  // namespace

PhysicalPlan MacroExpand(const JoinTree& tree, const catalog::Catalog& cat,
                         const ExpandOptions& options) {
  return Expander(tree, cat, options).Run();
}

}  // namespace hierdb::plan
