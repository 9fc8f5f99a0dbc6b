#include "workload.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <system_error>
#include <vector>

#include <unistd.h>

#include "appproto/trace_headers.h"
#include "spans.h"

namespace flowbench {
namespace {

// Packets per trace.  ~300 MB of payload in memory; generation takes
// 7-19 s on a shared 4-vCPU x86 host, a cache read under one.
constexpr std::size_t kTracePackets = 1000000;
// Traces kept in the cache directory (newest by modification time).
constexpr std::size_t kCachedTraces = 6;
constexpr char kMagic[8] = {'F', 'B', 'T', 'R', 'A', 'C', 'E', '1'};

net::TraceOptions base_options(std::uint64_t seed) {
  net::TraceOptions options;
  options.header_source = appproto::standard_header_source();
  options.target_packets = kTracePackets;
  options.seed = seed;
  return options;
}

// FNV-1a over everything that shapes a generated trace, so a cache file
// written under other options (or by an older layout) is never reused.
std::uint64_t fingerprint(const Workload& w) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](const void* data, std::size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= bytes[i];
      h *= 0x100000001b3ull;
    }
  };
  const net::TraceOptions& o = w.trace;
  mix(w.trace_kind.data(), w.trace_kind.size());
  mix(&o.target_packets, sizeof(o.target_packets));
  mix(&o.duration_seconds, sizeof(o.duration_seconds));
  mix(&o.data_packet_fraction, sizeof(o.data_packet_fraction));
  mix(&o.flows_per_packet, sizeof(o.flows_per_packet));
  mix(&o.tcp_fraction, sizeof(o.tcp_fraction));
  mix(&o.fin_close_fraction, sizeof(o.fin_close_fraction));
  mix(&o.rst_close_fraction, sizeof(o.rst_close_fraction));
  mix(o.class_mix.data(), sizeof(o.class_mix));
  mix(&o.app_header_fraction, sizeof(o.app_header_fraction));
  mix(&o.content_limit, sizeof(o.content_limit));
  mix(&o.seed, sizeof(o.seed));
  return h;
}

using File = std::unique_ptr<std::FILE, int (*)(std::FILE*)>;

class Writer {
 public:
  explicit Writer(std::FILE* file) : file_(file) {}
  template <typename T>
  void put(const T& value) {
    ok_ = ok_ && std::fwrite(&value, sizeof(T), 1, file_) == 1;
  }
  void put_bytes(const std::uint8_t* data, std::size_t n) {
    ok_ = ok_ && (n == 0 || std::fwrite(data, 1, n, file_) == n);
  }
  bool ok() const noexcept { return ok_; }

 private:
  std::FILE* file_;
  bool ok_ = true;
};

class Reader {
 public:
  explicit Reader(std::FILE* file) : file_(file) {}
  template <typename T>
  T get() {
    T value{};
    ok_ = ok_ && std::fread(&value, sizeof(T), 1, file_) == 1;
    return value;
  }
  void get_bytes(std::uint8_t* data, std::size_t n) {
    ok_ = ok_ && (n == 0 || std::fread(data, 1, n, file_) == n);
  }
  bool ok() const noexcept { return ok_; }

 private:
  std::FILE* file_;
  bool ok_ = true;
};

void put_key(Writer& w, const net::FlowKey& key) {
  w.put(key.src_ip);
  w.put(key.dst_ip);
  w.put(key.src_port);
  w.put(key.dst_port);
  w.put(static_cast<std::uint8_t>(key.protocol));
}

net::FlowKey get_key(Reader& r) {
  net::FlowKey key;
  key.src_ip = r.get<std::uint32_t>();
  key.dst_ip = r.get<std::uint32_t>();
  key.src_port = r.get<std::uint16_t>();
  key.dst_port = r.get<std::uint16_t>();
  key.protocol = static_cast<net::Protocol>(r.get<std::uint8_t>());
  return key;
}

bool write_trace(const std::string& path, std::uint64_t print,
                 const net::Trace& trace) {
  // Write to a private name and rename, so a reader never sees half a file.
  const std::string tmp = path + ".tmp" + std::to_string(::getpid());
  {
    File file(std::fopen(tmp.c_str(), "wb"), &std::fclose);
    if (file == nullptr) return false;
    std::setvbuf(file.get(), nullptr, _IOFBF, 1 << 20);
    Writer w(file.get());
    w.put(kMagic);
    w.put(print);
    w.put(trace.duration_seconds);
    w.put(static_cast<std::uint64_t>(trace.packets.size()));
    for (const net::Packet& p : trace.packets) {
      w.put(p.timestamp);
      put_key(w, p.key);
      w.put(static_cast<std::uint8_t>(p.flags.syn | p.flags.ack << 1 |
                                      p.flags.fin << 2 | p.flags.rst << 3));
      w.put(static_cast<std::uint32_t>(p.payload.size()));
      w.put_bytes(p.payload.data(), p.payload.size());
    }
    w.put(static_cast<std::uint64_t>(trace.truth.size()));
    for (const auto& [key, truth] : trace.truth) {
      put_key(w, key);
      w.put(static_cast<std::uint8_t>(truth.nature));
      w.put(static_cast<std::int32_t>(truth.app_protocol_id));
      w.put(static_cast<std::uint64_t>(truth.app_header_length));
      w.put(static_cast<std::uint64_t>(truth.data_packets));
      w.put(static_cast<std::uint8_t>(truth.closed_by_fin |
                                      truth.closed_by_rst << 1));
    }
    w.put(kMagic);
    if (!w.ok() || std::fflush(file.get()) != 0) {
      std::remove(tmp.c_str());
      return false;
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) std::filesystem::remove(tmp, ec);
  return !ec;
}

std::optional<net::Trace> read_trace(const std::string& path,
                                     std::uint64_t print) {
  File file(std::fopen(path.c_str(), "rb"), &std::fclose);
  if (file == nullptr) return std::nullopt;
  std::setvbuf(file.get(), nullptr, _IOFBF, 1 << 20);
  Reader r(file.get());
  const auto same_magic = [&r] {
    const auto m = r.get<std::array<char, 8>>();
    return std::equal(m.begin(), m.end(), kMagic);
  };
  if (!same_magic() || r.get<std::uint64_t>() != print || !r.ok()) {
    return std::nullopt;
  }
  net::Trace trace;
  trace.duration_seconds = r.get<double>();
  const auto packets = r.get<std::uint64_t>();
  if (!r.ok() || packets > (1ull << 32)) return std::nullopt;
  trace.packets.resize(packets);
  for (net::Packet& p : trace.packets) {
    p.timestamp = r.get<double>();
    p.key = get_key(r);
    const auto flags = r.get<std::uint8_t>();
    p.flags = {.syn = (flags & 1) != 0,
               .ack = (flags & 2) != 0,
               .fin = (flags & 4) != 0,
               .rst = (flags & 8) != 0};
    const auto size = r.get<std::uint32_t>();
    if (!r.ok() || size > (1u << 16)) return std::nullopt;
    p.payload.resize(size);
    r.get_bytes(p.payload.data(), size);
  }
  const auto flows = r.get<std::uint64_t>();
  if (!r.ok() || flows > packets) return std::nullopt;
  trace.truth.reserve(flows);
  for (std::uint64_t i = 0; i < flows; ++i) {
    const net::FlowKey key = get_key(r);
    net::FlowTruth truth;
    truth.nature = static_cast<datagen::FileClass>(r.get<std::uint8_t>());
    truth.app_protocol_id = r.get<std::int32_t>();
    truth.app_header_length = r.get<std::uint64_t>();
    truth.data_packets = r.get<std::uint64_t>();
    const auto closed = r.get<std::uint8_t>();
    truth.closed_by_fin = (closed & 1) != 0;
    truth.closed_by_rst = (closed & 2) != 0;
    trace.truth.emplace(key, truth);
  }
  if (!same_magic() || !r.ok()) return std::nullopt;
  return trace;
}

// Drops all but the newest kCachedTraces trace files.
void evict_old_traces(const std::filesystem::path& dir) {
  std::error_code ec;
  std::vector<std::pair<std::filesystem::file_time_type,
                        std::filesystem::path>> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".trace") {
      files.emplace_back(entry.last_write_time(ec), entry.path());
    }
  }
  if (files.size() <= kCachedTraces) return;
  std::sort(files.begin(), files.end(), [](const auto& a, const auto& b) {
    return a.first > b.first;
  });
  for (std::size_t i = kCachedTraces; i < files.size(); ++i) {
    std::filesystem::remove(files[i].second, ec);
  }
}

}  // namespace

std::optional<Workload> find_workload(std::string_view name,
                                      std::uint64_t seed) {
  Workload w;
  w.name = std::string(name);
  w.trace = base_options(seed);
  if (name == "gateway" || name == "paced_gateway") {
    // TraceOptions defaults: the paper-calibrated gateway mix.
    w.trace_kind = "gateway";
    w.paced_pps = name == "paced_gateway" ? 300000.0 : 0.0;
    w.min_label_accuracy = 0.8625;
    return w;
  }
  if (name == "flow_churn") {
    w.trace_kind = "churn";
    w.trace.flows_per_packet = 0.3;
    w.trace.fin_close_fraction = 0.0;
    w.trace.rst_close_fraction = 0.0;
    w.trace.duration_seconds = 2.0;
    w.trace.content_limit = 512;
    w.min_label_accuracy = 0.8115;
    return w;
  }
  return std::nullopt;
}

LoadedTrace load_trace(const Workload& workload,
                       const std::string& cache_dir) {
  const std::int64_t start = now_ns();
  const std::uint64_t print = fingerprint(workload);
  const std::filesystem::path dir(cache_dir);
  const std::filesystem::path path =
      dir / (workload.trace_kind + "-" +
             std::to_string(workload.trace.target_packets) + "-seed" +
             std::to_string(workload.trace.seed) + ".trace");
  LoadedTrace loaded;
  if (std::optional<net::Trace> cached = read_trace(path.string(), print)) {
    loaded.trace = std::move(*cached);
    loaded.from_cache = true;
  } else {
    loaded.trace = net::generate_trace(workload.trace);
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (!ec && write_trace(path.string(), print, loaded.trace)) {
      evict_old_traces(dir);
    }
  }
  loaded.seconds = static_cast<double>(now_ns() - start) * 1e-9;
  if (workload.paced_pps > 0.0) {
    // The open loop replays only the flow-arrival window.  After it the
    // trace thins out for seconds of trace time, a stretch whose length
    // depends on the seed, and which would set most of the replay's
    // wall time.
    std::vector<net::Packet>& packets = loaded.trace.packets;
    const auto past_window = std::find_if(
        packets.begin(), packets.end(), [&](const net::Packet& p) {
          return p.timestamp > workload.trace.duration_seconds;
        });
    packets.erase(past_window, packets.end());
  }
  return loaded;
}

}  // namespace flowbench
