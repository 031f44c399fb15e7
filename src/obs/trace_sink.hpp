#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "util/csv.hpp"

namespace wmsn::obs {

/// One traced frame event, already reduced to plain fields so sinks need no
/// knowledge of the network layer. `kind` points at a static string (the
/// packet-kind name); sinks must copy it if they outlive the event.
struct TraceEvent {
  double timeSeconds = 0.0;
  bool transmit = false;       ///< true = handed to the MAC, false = delivered
  const char* kind = "";       ///< packet kind name ("DATA", "GW_MOVE", ...)
  std::uint64_t node = 0;      ///< acting node (sender or receiver)
  bool broadcast = false;      ///< link-local broadcast frame
  std::uint64_t hopDst = 0;    ///< link destination (meaningless if broadcast)
  std::uint64_t origin = 0;    ///< node that created the packet
  std::uint64_t uid = 0;       ///< simulator-global packet id
  std::uint64_t bytes = 0;     ///< on-air size
};

enum class TraceFormat : std::uint8_t { kCsv, kJsonl, kNull };

std::string toString(TraceFormat format);
/// Parses "csv" | "jsonl" | "null"; throws PreconditionError otherwise.
TraceFormat parseTraceFormat(const std::string& name);

/// Where trace events go (ns-3's trace-sink half). Implementations buffer in
/// memory and serialise on demand; events() is the row count either way.
class TraceSink {
 public:
  virtual ~TraceSink() = default;

  virtual TraceFormat format() const = 0;
  virtual void onEvent(const TraceEvent& event) = 0;
  virtual std::size_t events() const = 0;
  /// The serialised trace ("" for the null sink).
  virtual std::string str() const = 0;
  virtual void writeFile(const std::string& path) const;
};

/// ns-2-style one-row-per-event CSV.
class CsvTraceSink final : public TraceSink {
 public:
  CsvTraceSink();
  TraceFormat format() const override { return TraceFormat::kCsv; }
  void onEvent(const TraceEvent& event) override;
  std::size_t events() const override { return csv_.rows(); }
  std::string str() const override { return csv_.str(); }
  void writeFile(const std::string& path) const override {
    csv_.writeFile(path);
  }
  const CsvWriter& csv() const { return csv_; }

 private:
  CsvWriter csv_;
};

/// One JSON object per line — the format log pipelines (jq, ClickHouse,
/// pandas.read_json(lines=True)) ingest directly.
class JsonlTraceSink final : public TraceSink {
 public:
  TraceFormat format() const override { return TraceFormat::kJsonl; }
  void onEvent(const TraceEvent& event) override;
  std::size_t events() const override { return events_; }
  std::string str() const override { return buffer_; }

 private:
  std::string buffer_;
  std::size_t events_ = 0;
};

/// Counts events and drops them — the zero-cost sink used to measure
/// instrumentation overhead (bench_obs_overhead) and to answer "how many
/// frames flew" without paying for serialisation.
class CountingTraceSink final : public TraceSink {
 public:
  TraceFormat format() const override { return TraceFormat::kNull; }
  void onEvent(const TraceEvent&) override { ++events_; }
  std::size_t events() const override { return events_; }
  std::string str() const override { return ""; }

 private:
  std::size_t events_ = 0;
};

std::unique_ptr<TraceSink> makeTraceSink(TraceFormat format);

}  // namespace wmsn::obs
