// Host-speed reference for the CPU-bound workloads.
//
// On a shared virtual host the same binary runs at very different speeds
// from one second to the next: a single thread of mote_testbed_n12 was
// measured flipping between ~80k and ~140k decisions/s within one run,
// with no steal time reported, while wall time and thread CPU time agreed.
// Raw wall-clock rates therefore spread far wider across process launches
// than any regression worth gating.
//
// The workloads interleave short runs of a fixed reference kernel with
// their own work and scale each slice's time (process CPU time for the
// gated rates, read before the kernel runs) by the host speed the kernel
// saw next to it: normalised time = time x (nominal kernel time / measured
// kernel time). Rates are then "per host second at the
// reference host speed". The kernel is this benchmark's own code, never
// the library's, so a change to the library cannot move it; it mimics the
// library's hot pattern (timestamped closures through a heap, small
// allocations, hash lookups) because a plain arithmetic loop tracked the
// host's slow phases far less closely. Raw rates are printed beside the
// normalised ones.
#pragma once

#include <cstdint>

#include "common/parallel.hpp"

namespace e2e {

/// Median time of the reference kernel on the reference host (4-vCPU KVM
/// Xeon, GCC 12, Release), frozen: the unit of "reference host speed".
inline constexpr double kReferenceKernelS = 0.0008;

/// One run of the reference kernel; returns its wall time in seconds.
double reference_kernel_s(std::uint64_t salt);

/// Host speed right now, relative to the reference host: the nominal
/// kernel time over the median of `calls` kernel runs. With a pool, the
/// runs are spread over its threads (the caller included), so the figure
/// covers every CPU the workload uses.
double host_speed(std::size_t calls, tcast::ThreadPool* pool = nullptr);

/// Median time to start and join five empty threads on the reference
/// host, frozen. tcastd's set-up is mostly thread starts, whose cost swung
/// across launches on a shared host; scaled by this reference it held
/// much steadier (see README.md).
inline constexpr double kReferenceSpawnS = 180e-6;

/// Thread-start speed right now relative to the reference host: the
/// nominal time over the median of three start-and-join rounds of five
/// empty threads.
double spawn_speed();

}  // namespace e2e
