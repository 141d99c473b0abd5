#include "host_probe.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <string_view>
#include <thread>
#include <vector>

#include "inputs.h"
#include "trace.h"

namespace perfbench {
namespace {

constexpr size_t kProbeBytes = 1 << 20;

// Fixed pseudo-XML: flat records of nested elements with attributes
// and text runs. Its seed is a constant, never the run's.
std::string ProbeText() {
  static const char* const kNames[] = {"book",   "title", "author", "price",
                                       "year",   "pub",   "SPEECH", "LINE",
                                       "dataset", "reference"};
  Rng rng(0x9e3779b97f4a7c15ull);
  std::string text;
  text.reserve(kProbeBytes + 4096);
  text += "<corpus>";
  while (text.size() < kProbeBytes) {
    const char* outer = kNames[rng.Below(10)];
    text += "<";
    text += outer;
    if (rng.Below(3) == 0) text += " id=\"" + std::to_string(rng.Below(100000)) + "\"";
    text += ">";
    for (uint64_t k = 1 + rng.Below(4); k > 0; --k) {
      const char* inner = kNames[rng.Below(10)];
      text += "<";
      text += inner;
      text += ">";
      for (uint64_t n = rng.Below(60); n > 0; --n) {
        const uint64_t r = rng.Below(32);
        text += r < 26 ? static_cast<char>('a' + r) : r < 30 ? ' ' : '0' + static_cast<char>(r);
      }
      text += "</";
      text += inner;
      text += ">";
    }
    text += "</";
    text += outer;
    text += ">\n";
  }
  text += "</corpus>";
  return text;
}

// One tokenizer pass: element names hashed into a small open-addressed
// table, attribute and text bytes classified one by one, text runs
// copied out. Returns a digest so no part of it can be optimised away.
uint64_t Tokenize(std::string_view text) {
  std::array<uint64_t, 64> names{};
  std::array<uint64_t, 64> counts{};
  std::string run;
  uint64_t digest = 0;
  size_t i = 0;
  while (i < text.size()) {
    const char* lt = static_cast<const char*>(
        std::memchr(text.data() + i, '<', text.size() - i));
    if (lt == nullptr) break;
    const size_t open = lt - text.data();
    run.assign(text.data() + i, open - i);
    for (unsigned char c : run) {
      if (c == ' ') digest += 3;
      else if (c >= '0' && c <= '9') digest ^= c;
      else digest += c & 7;
    }
    const char* gt = static_cast<const char*>(
        std::memchr(text.data() + open, '>', text.size() - open));
    if (gt == nullptr) break;
    const size_t close = gt - text.data();
    size_t p = open + 1;
    const bool end = p < close && text[p] == '/';
    if (end) ++p;
    const size_t name_begin = p;
    while (p < close && text[p] != ' ') ++p;
    const uint64_t h = Fnv1a(text.substr(name_begin, p - name_begin));
    for (size_t slot = h & 63;; slot = (slot + 1) & 63) {
      if (names[slot] == h || names[slot] == 0) {
        names[slot] = h;
        counts[slot] += end ? 1 : 2;
        break;
      }
    }
    for (; p < close; ++p) digest += text[p] == '"';
    i = close + 1;
  }
  for (uint64_t c : counts) digest = digest * 31 + c;
  return digest;
}

}  // namespace

HostProbe::HostProbe() : text_(ProbeText()) { Run(0, text_.size()); }

int64_t HostProbe::Run(size_t offset, size_t bytes) {
  const std::string_view text(text_);
  uint64_t digest = 0;
  const int64_t t0 = NowNs();
  while (bytes > 0) {
    const size_t at = offset % text.size();
    const size_t n = std::min(bytes, text.size() - at);
    digest ^= Tokenize(text.substr(at, n));
    offset += n;
    bytes -= n;
  }
  const int64_t busy = NowNs() - t0;
  sink_.fetch_xor(digest, std::memory_order_relaxed);
  return busy;
}

void HostProbe::Tick(size_t bytes, int threads) {
  const int64_t t0 = NowNs();
  const size_t offset = cursor_;
  cursor_ = (cursor_ + bytes) % text_.size();
  if (threads <= 1) {
    busy_ns_ += Run(offset, bytes);
  } else {
    std::vector<int64_t> busy(threads);
    std::vector<std::thread> pool;
    for (int k = 0; k < threads; ++k) {
      pool.emplace_back([this, k, offset, bytes, &busy] {
        cpu_set_t cpus;
        CPU_ZERO(&cpus);
        CPU_SET(k, &cpus);
        pthread_setaffinity_np(pthread_self(), sizeof cpus, &cpus);
        busy[k] = Run(offset, bytes);
      });
    }
    for (std::thread& t : pool) t.join();
    for (int64_t ns : busy) busy_ns_ += ns;
  }
  bytes_ += static_cast<double>(bytes) * std::max(threads, 1);
  wall_ns_ += NowNs() - t0;
}

HostProbe::Taken HostProbe::Take() {
  Taken taken;
  if (busy_ns_ > 0) {
    const double mb_s = bytes_ / 1e6 / (busy_ns_ * 1e-9);
    taken.scale = std::pow(mb_s / kReferenceProbeMbS, kHostElasticity);
  }
  taken.wall_s = wall_ns_ * 1e-9;
  bytes_ = busy_ns_ = wall_ns_ = 0.0;
  return taken;
}

}  // namespace perfbench
