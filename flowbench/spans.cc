#include "spans.h"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

namespace flowbench {

std::size_t heap_in_use_bytes() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

double quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  const auto n = static_cast<double>(values.size());
  const auto rank = static_cast<std::size_t>(std::ceil(q * n));
  const std::size_t index = std::clamp<std::size_t>(rank, 1, values.size()) - 1;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return values[index];
}

Tail highest_tail(std::vector<double>& values) {
  Tail tail;
  const auto n = static_cast<double>(values.size());
  // Beyond quantile 1 - 10^-k lie n * 10^-k samples.
  for (double beyond = 0.01; n * beyond >= 10.0; beyond /= 10.0) {
    tail.percentile = 100.0 * (1.0 - beyond);
  }
  if (tail.percentile == 0.0) return tail;
  tail.value = quantile(values, tail.percentile / 100.0);
  return tail;
}

void SpanSummary::add(const std::vector<Span>& spans) {
  std::vector<double> child_ns(spans.size(), 0.0);
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] +=
          static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto n = static_cast<std::size_t>(spans[i].name);
    const double duration =
        static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    ++count[n];
    total_ns[n] += duration;
    self_ns[n] += duration - child_ns[i];
  }
}

double SpanSummary::mean_ns(SpanName name) const noexcept {
  const auto n = static_cast<std::size_t>(name);
  return count[n] == 0 ? 0.0 : total_ns[n] / static_cast<double>(count[n]);
}

bool write_spans(const std::string& path,
                 const std::vector<const SpanBuffer*>& buffers) {
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(
      std::fopen(path.c_str(), "wb"), &std::fclose);
  if (file == nullptr) return false;
  // Header: magic, record size, then one record per span.  Parents index
  // into the span's own buffer; `buffer` says which one.
  const char magic[8] = {'F', 'B', 'S', 'P', 'A', 'N', '1', '\n'};
  if (std::fwrite(magic, sizeof(magic), 1, file.get()) != 1) return false;
  struct Record {
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;
    std::uint32_t packet;
    std::uint16_t name;
    std::uint16_t buffer;
    std::uint32_t pad;
  };
  static_assert(sizeof(Record) == 32);
  std::vector<Record> chunk;
  chunk.reserve(1 << 16);
  for (std::size_t b = 0; b < buffers.size(); ++b) {
    for (const Span& span : buffers[b]->spans()) {
      chunk.push_back(Record{span.start_ns, span.end_ns, span.parent,
                             span.packet, static_cast<std::uint16_t>(span.name),
                             static_cast<std::uint16_t>(b), 0});
      if (chunk.size() == chunk.capacity()) {
        if (std::fwrite(chunk.data(), sizeof(Record), chunk.size(),
                        file.get()) != chunk.size()) {
          return false;
        }
        chunk.clear();
      }
    }
  }
  if (!chunk.empty() && std::fwrite(chunk.data(), sizeof(Record), chunk.size(),
                                    file.get()) != chunk.size()) {
    return false;
  }
  return std::fflush(file.get()) == 0;
}

}  // namespace flowbench
