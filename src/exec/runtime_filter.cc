#include "src/exec/runtime_filter.h"

#include <atomic>
#include <bit>

namespace polarx {

uint64_t CellHash(const Value& v) {
  if (const auto* i = std::get_if<int64_t>(&v)) return Int64CellHash(*i);
  if (const auto* d = std::get_if<double>(&v)) return DoubleCellHash(*d);
  if (const auto* s = std::get_if<std::string>(&v)) return StringCellHash(*s);
  return kNullCellHash;
}

uint64_t RowKeyHash(const Row& row, const std::vector<int>& cols) {
  uint64_t h = kKeyHashSeed;
  for (int c : cols) h = HashCombine(h, CellHash(row[c]));
  return h;
}

BloomFilter::BloomFilter(size_t expected_keys, uint64_t seed) : seed_(seed) {
  size_t bits = std::bit_ceil(std::max<size_t>(64, expected_keys * 10));
  words_.assign(bits / 64, 0);
  bit_mask_ = bits - 1;
}

void BloomFilter::Add(uint64_t key_hash) {
  if (words_.empty()) return;
  uint64_t h1 = MixHash64(key_hash ^ seed_);
  uint64_t h2 = MixHash64(h1) | 1;
  for (int i = 0; i < num_probes_; ++i) {
    uint64_t bit = (h1 + uint64_t(i) * h2) & bit_mask_;
    words_[bit >> 6] |= uint64_t{1} << (bit & 63);
  }
}

bool BloomFilter::MightContain(uint64_t key_hash) const {
  if (words_.empty()) return true;  // no information: pass everything
  uint64_t h1 = MixHash64(key_hash ^ seed_);
  uint64_t h2 = MixHash64(h1) | 1;
  for (int i = 0; i < num_probes_; ++i) {
    uint64_t bit = (h1 + uint64_t(i) * h2) & bit_mask_;
    if ((words_[bit >> 6] & (uint64_t{1} << (bit & 63))) == 0) return false;
  }
  return true;
}

bool RuntimeFilter::TestRow(const Row& row, const std::vector<int>& cols)
    const {
  const auto* k = cols.size() == 1 ? std::get_if<int64_t>(&row[cols[0]])
                                   : nullptr;
  const uint64_t hash = RowKeyHash(row, cols);
  return k != nullptr ? TestKey(*k, hash) : TestHash(hash);
}

RuntimeFilterBuilder::RuntimeFilterBuilder(size_t expected_keys,
                                           uint64_t seed)
    : filter_(std::make_shared<RuntimeFilter>()) {
  filter_->bloom = BloomFilter(expected_keys, seed);
}

void RuntimeFilterBuilder::AddKey(uint64_t key_hash, const int64_t* int_key) {
  filter_->bloom.Add(key_hash);
  ++filter_->num_build_keys;
  // Min/max bounds only stay valid for pure single-int64 key sets; any
  // other key disables them (never risk a false negative).
  if (int_key == nullptr) {
    single_int_key_ = false;
  } else if (!filter_->has_bounds) {
    filter_->has_bounds = true;
    filter_->min_key = filter_->max_key = *int_key;
  } else {
    filter_->min_key = std::min(filter_->min_key, *int_key);
    filter_->max_key = std::max(filter_->max_key, *int_key);
  }
}

std::shared_ptr<const RuntimeFilter> RuntimeFilterBuilder::Finish() {
  if (!single_int_key_) filter_->has_bounds = false;
  return filter_;
}

namespace {
std::atomic<uint64_t> g_scan_tested{0};
std::atomic<uint64_t> g_scan_dropped{0};
std::atomic<uint64_t> g_join_probe_rows{0};
}  // namespace

void ResetRuntimeFilterStats() {
  g_scan_tested.store(0, std::memory_order_relaxed);
  g_scan_dropped.store(0, std::memory_order_relaxed);
  g_join_probe_rows.store(0, std::memory_order_relaxed);
}

RuntimeFilterStats ReadRuntimeFilterStats() {
  RuntimeFilterStats s;
  s.scan_rows_tested = g_scan_tested.load(std::memory_order_relaxed);
  s.scan_rows_dropped = g_scan_dropped.load(std::memory_order_relaxed);
  s.join_probe_rows = g_join_probe_rows.load(std::memory_order_relaxed);
  return s;
}

void AddScanFilterStats(uint64_t tested, uint64_t dropped) {
  if (tested != 0) g_scan_tested.fetch_add(tested, std::memory_order_relaxed);
  if (dropped != 0) {
    g_scan_dropped.fetch_add(dropped, std::memory_order_relaxed);
  }
}

void AddJoinProbeRows(uint64_t rows) {
  if (rows != 0) g_join_probe_rows.fetch_add(rows, std::memory_order_relaxed);
}

}  // namespace polarx
