#include "os/task.h"

#include <algorithm>

#include "util/assert.h"
#include "util/rng.h"

namespace tint::os {

Task::Task(TaskId id, unsigned core, unsigned local_node,
           unsigned num_bank_colors, unsigned num_llc_colors,
           unsigned magazine_capacity, ColorClaims* claims)
    : id_(id), core_(core), local_node_(local_node), claims_(claims),
      combo_cursor_(mix64(id) & 0xFFFF), magazine_(magazine_capacity) {
  auto init = std::make_unique<ColorSet>();
  init->mem_colors.assign(num_bank_colors, false);
  init->llc_colors.assign(num_llc_colors, false);
  colors_.store(init.get(), std::memory_order_release);
  color_history_.push_back(std::move(init));
}

void Task::publish(std::unique_ptr<const ColorSet> next) {
  if (claims_) claims_->update(id_, colors(), *next);
  colors_.store(next.get(), std::memory_order_release);
  color_history_.push_back(std::move(next));
}

void Task::set_mem_color(unsigned color) {
  std::lock_guard lk(color_mu_);
  auto next = std::make_unique<ColorSet>(colors());
  TINT_ASSERT_MSG(color < next->mem_colors.size(), "bank color out of range");
  next->mem_colors[color] = true;
  rebuild_lists(*next);
  publish(std::move(next));
}

void Task::clear_mem_color(unsigned color) {
  std::lock_guard lk(color_mu_);
  auto next = std::make_unique<ColorSet>(colors());
  TINT_ASSERT_MSG(color < next->mem_colors.size(), "bank color out of range");
  next->mem_colors[color] = false;
  rebuild_lists(*next);
  publish(std::move(next));
}

void Task::set_llc_color(unsigned color) {
  std::lock_guard lk(color_mu_);
  auto next = std::make_unique<ColorSet>(colors());
  TINT_ASSERT_MSG(color < next->llc_colors.size(), "LLC color out of range");
  next->llc_colors[color] = true;
  rebuild_lists(*next);
  publish(std::move(next));
}

void Task::clear_llc_color(unsigned color) {
  std::lock_guard lk(color_mu_);
  auto next = std::make_unique<ColorSet>(colors());
  TINT_ASSERT_MSG(color < next->llc_colors.size(), "LLC color out of range");
  next->llc_colors[color] = false;
  rebuild_lists(*next);
  publish(std::move(next));
}

void Task::clear_all_colors() {
  std::lock_guard lk(color_mu_);
  auto next = std::make_unique<ColorSet>(colors());
  next->mem_colors.assign(next->mem_colors.size(), false);
  next->llc_colors.assign(next->llc_colors.size(), false);
  rebuild_lists(*next);
  publish(std::move(next));
}

void Task::replace_colors(const std::vector<uint16_t>& drop_mem,
                          const std::vector<uint16_t>& add_mem,
                          const std::vector<uint8_t>& drop_llc,
                          const std::vector<uint8_t>& add_llc) {
  std::lock_guard lk(color_mu_);
  auto next = std::make_unique<ColorSet>(colors());
  for (const uint16_t c : drop_mem) {
    TINT_ASSERT_MSG(c < next->mem_colors.size(), "bank color out of range");
    next->mem_colors[c] = false;
  }
  for (const uint16_t c : add_mem) {
    TINT_ASSERT_MSG(c < next->mem_colors.size(), "bank color out of range");
    next->mem_colors[c] = true;
  }
  for (const uint8_t c : drop_llc) {
    TINT_ASSERT_MSG(c < next->llc_colors.size(), "LLC color out of range");
    next->llc_colors[c] = false;
  }
  for (const uint8_t c : add_llc) {
    TINT_ASSERT_MSG(c < next->llc_colors.size(), "LLC color out of range");
    next->llc_colors[c] = true;
  }
  rebuild_lists(*next);
  publish(std::move(next));
}

void Task::rebuild_lists(ColorSet& cs) {
  cs.mem_list.clear();
  for (size_t i = 0; i < cs.mem_colors.size(); ++i)
    if (cs.mem_colors[i]) cs.mem_list.push_back(static_cast<uint16_t>(i));
  cs.llc_list.clear();
  for (size_t i = 0; i < cs.llc_colors.size(); ++i)
    if (cs.llc_colors[i]) cs.llc_list.push_back(static_cast<uint8_t>(i));
  cs.using_bank = !cs.mem_list.empty();
  cs.using_llc = !cs.llc_list.empty();
}

void ColorClaims::update(TaskId task, const Task::ColorSet& before,
                         const Task::ColorSet& after) {
  const auto apply = [task](std::vector<std::vector<TaskId>>& holders,
                            const std::vector<bool>& was,
                            const std::vector<bool>& now) {
    for (size_t c = 0; c < now.size(); ++c) {
      if (was[c] == now[c]) continue;
      std::vector<TaskId>& h = holders[c];
      const auto it = std::lower_bound(h.begin(), h.end(), task);
      if (now[c]) {
        h.insert(it, task);
      } else {
        TINT_DASSERT(it != h.end() && *it == task);
        h.erase(it);
      }
    }
  };
  std::lock_guard lk(mu_);
  apply(holders_[static_cast<unsigned>(ColorDim::kBank)], before.mem_colors,
        after.mem_colors);
  apply(holders_[static_cast<unsigned>(ColorDim::kLlc)], before.llc_colors,
        after.llc_colors);
}

TaskTable::TaskTable()
    : chunks_(std::make_unique<std::atomic<Chunk*>[]>(kMaxChunks)) {
  for (unsigned i = 0; i < kMaxChunks; ++i)
    chunks_[i].store(nullptr, std::memory_order_relaxed);
}

TaskTable::~TaskTable() {
  for (unsigned i = 0; i < kMaxChunks; ++i)
    delete chunks_[i].load(std::memory_order_relaxed);
}

TaskId TaskTable::create(unsigned core, unsigned local_node,
                         unsigned num_bank_colors, unsigned num_llc_colors,
                         unsigned magazine_capacity, ColorClaims* claims) {
  std::unique_lock lk(mu_);
  const uint32_t id = size_.load(std::memory_order_relaxed);
  TINT_ASSERT_MSG(id < kMaxChunks * kChunkSize, "task table full");
  auto& slot = chunks_[id >> kChunkBits];
  Chunk* c = slot.load(std::memory_order_relaxed);
  if (!c) {
    c = new Chunk();
    // Published before size_ below; readers load the chunk pointer with
    // acquire, so they always see the constructed chunk.
    slot.store(c, std::memory_order_release);
  }
  c->slots[id & (kChunkSize - 1)] =
      std::make_unique<Task>(id, core, local_node, num_bank_colors,
                             num_llc_colors, magazine_capacity, claims);
  // The slot write happens-before this release; at() checks the bound
  // with acquire, so a visible id implies a visible Task.
  size_.store(id + 1, std::memory_order_release);
  return id;
}

}  // namespace tint::os
