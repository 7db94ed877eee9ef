#pragma once

namespace afc::perfbench {

/// Host CPU seconds used by the calling thread. The simulator is one thread
/// that never blocks, so this is its host cost, without the time the
/// machine's scheduler gives to other processes.
double cpu_s();

/// The machine's current speed: steps per host CPU second of a fixed
/// reference kernel, timed for about 0.3 s in a child process pinned to the
/// caller's CPU; 0 if the child could not run. The kernel is an event heap
/// of 256 entries plus a random read-modify-write in a 32 MiB table per
/// step, the same mix of branchy heap work and cache misses as the
/// simulator's event loop, but code of this directory only, so no change to
/// the simulator moves it.
double reference_rate();

/// The reference rate that host metrics are scaled to: host seconds are
/// reported as the seconds the same work takes when the reference kernel
/// runs at this rate. Only a scale; it was the kernel's rate on a quiet
/// 4-core Intel Xeon virtual machine.
constexpr double kReferenceNominalRate = 8.0e6;

}  // namespace afc::perfbench
