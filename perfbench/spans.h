#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/trace.h"

namespace afc::perfbench {

/// Per-stage simulated time from one traced run, in ms.
struct StageTime {
  double mean_ms = 0.0;  // mean span duration
  double self_ms = 0.0;  // mean span duration minus what its child spans cover
};

/// Exports every span `tracer` holds into memory (parsed from the Chrome
/// trace-event stream line by line, so the JSON text is never materialized)
/// and computes each stage's mean and self time. Spans of one op id form a
/// tree: a span's parent is the shortest span of the op whose interval
/// contains it, on the same track (actor) when one does, else on any track;
/// equal intervals nest in export order. Self time is a span's duration
/// minus the union of its children's intervals. Stages that never fired are
/// absent.
std::map<std::string, StageTime> stage_times(const trace::Collector& tracer);

}  // namespace afc::perfbench
