#include "core/color_advisor.h"

#include <algorithm>
#include <cstdio>

#include "core/tintmalloc.h"
#include "util/assert.h"

namespace tint::core {

namespace {
std::string fmt_frac(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f", v);
  return buf;
}
}  // namespace

ColorAdvisor::ColorAdvisor(const hw::AddressMapping& mapping,
                           const hw::Topology& topo)
    : mapping_(mapping), topo_(topo) {}

uint64_t ColorAdvisor::pool_capacity_pages(const os::Kernel& kernel,
                                           os::TaskId task) const {
  const os::Task& t = kernel.task(task);
  if (!t.using_bank() && !t.using_llc()) return topo_.total_pages();

  // Frames per (bank, LLC) combination on one node.
  const uint64_t per_combo =
      topo_.pages_per_node() /
      (mapping_.banks_per_node() * mapping_.num_llc_colors());
  const uint64_t banks = t.using_bank() ? t.mem_color_list().size()
                                        : mapping_.num_bank_colors();
  const uint64_t llcs = t.using_llc() ? t.llc_color_list().size()
                                      : mapping_.num_llc_colors();
  return banks * llcs * per_combo;
}

bool ColorAdvisor::pool_would_overflow(const os::Kernel& kernel,
                                       os::TaskId task,
                                       uint64_t needed_bytes) const {
  const uint64_t pages =
      (needed_bytes + topo_.page_bytes() - 1) / topo_.page_bytes();
  return pages > pool_capacity_pages(kernel, task);
}

std::vector<TaskAdvice> ColorAdvisor::analyze(
    const os::Kernel& kernel, double fallback_tolerance) const {
  // Collect machine-wide claims so suggestions stay disjoint.
  std::vector<unsigned> bank_claims(mapping_.num_bank_colors(), 0);
  // Per node: which tasks use which LLC colors.
  std::vector<std::vector<unsigned>> node_llc_claims(
      topo_.num_nodes(), std::vector<unsigned>(mapping_.num_llc_colors(), 0));
  for (os::TaskId id = 0; id < kernel.num_tasks(); ++id) {
    const os::Task& t = kernel.task(id);
    for (const uint16_t c : t.mem_color_list()) ++bank_claims[c];
    for (const uint8_t c : t.llc_color_list())
      ++node_llc_claims[t.local_node()][c];
  }

  // RAS-retired banks: never suggest them, and tell tasks still holding
  // them to swap in healthy replacements.
  std::vector<uint8_t> retired(mapping_.num_bank_colors(), 0);
  for (const unsigned c : kernel.retired_colors()) retired[c] = 1;

  std::vector<TaskAdvice> out;
  for (os::TaskId id = 0; id < kernel.num_tasks(); ++id) {
    const os::Task& t = kernel.task(id);
    const os::TaskAllocStats& as = t.alloc_stats();
    TaskAdvice advice;
    advice.task = id;

    // Retired colors outrank fallback pressure: a retired bank serves no
    // new frames, so the task's pool has silently shrunk even if its
    // fallback fraction still looks healthy.
    if (t.using_bank()) {
      for (const uint16_t c : t.mem_color_list())
        if (retired[c])
          advice.removals.mem_colors.push_back(c);
      if (!advice.removals.mem_colors.empty()) {
        for (unsigned b = 0; b < mapping_.banks_per_node() &&
                             advice.additions.mem_colors.size() <
                                 advice.removals.mem_colors.size();
             ++b) {
          const unsigned color = mapping_.make_bank_color(t.local_node(), b);
          if (!retired[color] && bank_claims[color] == 0 &&
              !t.has_mem_color(color))
            advice.additions.mem_colors.push_back(
                static_cast<uint16_t>(color));
        }
        advice.kind = TaskAdvice::Kind::kReplaceRetired;
        advice.reason =
            std::to_string(advice.removals.mem_colors.size()) +
            " bank color(s) retired by RAS" +
            (advice.additions.mem_colors.empty()
                 ? "; no unclaimed local replacement -- dropping only"
                 : "; replacing with unclaimed local banks");
        out.push_back(std::move(advice));
        continue;
      }
    }

    const double fb =
        as.page_faults ? static_cast<double>(as.fallback_pages) /
                             static_cast<double>(as.page_faults)
                       : 0.0;
    if (fb <= fallback_tolerance || (!t.using_bank() && !t.using_llc())) {
      advice.reason = "no fallback pressure";
      out.push_back(std::move(advice));
      continue;
    }

    // Prefer widening with unclaimed banks on the task's own node.
    if (t.using_bank()) {
      for (unsigned b = 0; b < mapping_.banks_per_node(); ++b) {
        const unsigned color = mapping_.make_bank_color(t.local_node(), b);
        if (bank_claims[color] == 0 && !retired[color] &&
            !t.has_mem_color(color))
          advice.additions.mem_colors.push_back(
              static_cast<uint16_t>(color));
      }
      if (!advice.additions.mem_colors.empty()) {
        advice.kind = TaskAdvice::Kind::kWidenBanks;
        advice.reason =
            "fallback fraction " + fmt_frac(fb) +
            ": unclaimed local banks available";
        out.push_back(std::move(advice));
        continue;
      }
    }

    // Node fully claimed: suggest sharing LLC colors with node siblings
    // (the MEM+LLC(part) escape hatch).
    if (t.using_llc()) {
      const auto& claims = node_llc_claims[t.local_node()];
      for (unsigned c = 0; c < mapping_.num_llc_colors(); ++c)
        if (claims[c] > 0 && !t.has_llc_color(c))
          advice.additions.llc_colors.push_back(static_cast<uint8_t>(c));
      if (!advice.additions.llc_colors.empty()) {
        advice.kind = TaskAdvice::Kind::kShareLlc;
        advice.reason = "fallback fraction " + fmt_frac(fb) +
                        ": node banks exhausted, share LLC colors "
                        "group-wise";
        out.push_back(std::move(advice));
        continue;
      }
    }

    advice.reason = "fallback pressure but no colors left to suggest";
    out.push_back(std::move(advice));
  }
  return out;
}

TaskAdvice ColorAdvisor::plan_recolor(const os::Kernel& kernel,
                                      os::TaskId task, unsigned hot_color,
                                      const std::vector<uint8_t>& avoid,
                                      ColorDim dim) const {
  TaskAdvice advice;
  advice.task = task;
  const os::Task& t = kernel.task(task);

  if (dim == ColorDim::kLlc) {
    if (!t.has_llc_color(hot_color)) {
      advice.reason = "task no longer holds the hot LLC color";
      return advice;
    }
    // The LLC palette is machine-global: one claims scan, lowest
    // unclaimed color wins. No retirement axis (RAS retires banks, not
    // cache slices) and no node preference (every node sees the LLC).
    std::vector<unsigned> llc_claims(mapping_.num_llc_colors(), 0);
    for (os::TaskId id = 0; id < kernel.num_tasks(); ++id)
      for (const uint8_t c : kernel.task(id).llc_color_list())
        ++llc_claims[c];
    for (unsigned c = 0; c < mapping_.num_llc_colors(); ++c) {
      if (llc_claims[c] != 0) continue;
      if (c < avoid.size() && avoid[c]) continue;
      if (t.has_llc_color(c)) continue;
      advice.kind = TaskAdvice::Kind::kRecolorHot;
      advice.removals.llc_colors.push_back(static_cast<uint8_t>(hot_color));
      advice.additions.llc_colors.push_back(static_cast<uint8_t>(c));
      advice.reason = "llc color " + std::to_string(hot_color) +
                      " interference-hot; replacing with unclaimed color " +
                      std::to_string(c);
      return advice;
    }
    advice.reason = "no unclaimed LLC color left to swap in";
    return advice;
  }

  if (!t.has_mem_color(hot_color)) {
    advice.reason = "task no longer holds the hot color";
    return advice;
  }

  // Machine-wide claims so the replacement stays disjoint from every
  // other tenant -- handing a second tenant's color out would just move
  // the collision.
  std::vector<unsigned> bank_claims(mapping_.num_bank_colors(), 0);
  for (os::TaskId id = 0; id < kernel.num_tasks(); ++id)
    for (const uint16_t c : kernel.task(id).mem_color_list())
      ++bank_claims[c];
  std::vector<uint8_t> retired(mapping_.num_bank_colors(), 0);
  for (const unsigned c : kernel.retired_colors()) retired[c] = 1;

  const auto usable = [&](unsigned color) {
    if (bank_claims[color] != 0 || retired[color]) return false;
    if (color < avoid.size() && avoid[color]) return false;
    if (!kernel.node_online(mapping_.node_of_bank_color(color))) return false;
    return !t.has_mem_color(color);
  };
  // Node preference order: the hot color's node (migration traffic stays
  // on one controller), the task's own node, then the rest.
  std::vector<unsigned> nodes;
  const auto add_node = [&](unsigned n) {
    if (std::find(nodes.begin(), nodes.end(), n) == nodes.end())
      nodes.push_back(n);
  };
  add_node(mapping_.node_of_bank_color(hot_color));
  add_node(t.local_node());
  for (unsigned n = 0; n < topo_.num_nodes(); ++n) add_node(n);

  for (const unsigned node : nodes) {
    if (!kernel.node_online(node)) continue;
    for (unsigned b = 0; b < mapping_.banks_per_node(); ++b) {
      const unsigned color = mapping_.make_bank_color(node, b);
      if (!usable(color)) continue;
      advice.kind = TaskAdvice::Kind::kRecolorHot;
      advice.removals.mem_colors.push_back(static_cast<uint16_t>(hot_color));
      advice.additions.mem_colors.push_back(static_cast<uint16_t>(color));
      advice.reason = "bank color " + std::to_string(hot_color) +
                      " contention-hot; replacing with unclaimed color " +
                      std::to_string(color);
      return advice;
    }
  }
  advice.reason = "no unclaimed healthy bank color left to swap in";
  return advice;
}

unsigned ColorAdvisor::apply(os::Kernel& kernel,
                             const TaskAdvice& advice) const {
  if (advice.kind == TaskAdvice::Kind::kOk) return 0;
  unsigned calls = 0;
  for (const uint16_t c : advice.removals.mem_colors) {
    const os::VirtAddr r = kernel.mmap(
        advice.task, c | os::CLEAR_MEM_COLOR, 0, os::PROT_COLOR_ALLOC);
    TINT_ASSERT_MSG(r != os::kMmapFailed, "CLEAR_MEM_COLOR rejected");
    ++calls;
  }
  for (const uint8_t c : advice.removals.llc_colors) {
    const os::VirtAddr r = kernel.mmap(
        advice.task, c | os::CLEAR_LLC_COLOR, 0, os::PROT_COLOR_ALLOC);
    TINT_ASSERT_MSG(r != os::kMmapFailed, "CLEAR_LLC_COLOR rejected");
    ++calls;
  }
  return calls + apply_thread_colors(kernel, advice.task, advice.additions);
}

}  // namespace tint::core
