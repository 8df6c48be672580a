// Virtual-time and size units used throughout the simulator.
//
// Virtual time is an int64 count of nanoseconds. CPU work is expressed in
// "instructions" and converted to time once, through the configured MIPS
// rating (the paper's KSR1 processors are 40 MIPS).

#ifndef HIERDB_COMMON_UNITS_H_
#define HIERDB_COMMON_UNITS_H_

#include <cstdint>

namespace hierdb {

/// Virtual time in nanoseconds.
using SimTime = int64_t;

constexpr SimTime kNanosecond = 1;
constexpr SimTime kMicrosecond = 1000 * kNanosecond;
constexpr SimTime kMillisecond = 1000 * kMicrosecond;
constexpr SimTime kSecond = 1000 * kMillisecond;

constexpr uint64_t kKiB = 1024;
constexpr uint64_t kMiB = 1024 * kKiB;

/// Converts an instruction count to virtual time at the given MIPS rating.
inline SimTime InstrToTime(double instructions, double mips) {
  // mips = million instructions per second => ns per instruction = 1000/mips.
  return static_cast<SimTime>(instructions * (1000.0 / mips));
}

/// Milliseconds (double) view of a SimTime, for reporting.
inline double ToMillis(SimTime t) {
  return static_cast<double>(t) / static_cast<double>(kMillisecond);
}

}  // namespace hierdb

#endif  // HIERDB_COMMON_UNITS_H_
