#include "obs/trace.h"

#include <algorithm>

namespace hierdb::obs {

const char* EventKindName(EventKind k) {
  switch (k) {
    case EventKind::kSpan: return "span";
    case EventKind::kSteal: return "steal";
    case EventKind::kCacheHit: return "cache_hit";
    case EventKind::kCacheMiss: return "cache_miss";
    case EventKind::kPoolRent: return "pool_rent";
    case EventKind::kPoolReturn: return "pool_return";
    case EventKind::kFabricSend: return "fabric_send";
    case EventKind::kSchedule: return "schedule";
    case EventKind::kFault: return "fault";
    case EventKind::kRetry: return "retry";
    case EventKind::kFallback: return "fallback";
    case EventKind::kSubmit: return "submit";
    case EventKind::kDeadlineArm: return "deadline_arm";
    case EventKind::kDeadlineFire: return "deadline_fire";
    case EventKind::kTenantReject: return "tenant_reject";
    case EventKind::kWorkerDeath: return "worker_death";
    case EventKind::kFabricDrop: return "fabric_drop";
    case EventKind::kFabricDup: return "fabric_dup";
    case EventKind::kHeartbeatMiss: return "heartbeat_miss";
  }
  return "?";
}

uint64_t QueryTrace::TotalBusyNs() const {
  uint64_t busy = 0;
  for (const TraceEvent& e : events) {
    if (e.kind == EventKind::kSpan) busy += e.detail;
  }
  return busy;
}

uint64_t QueryTrace::MaxEndNs() const {
  uint64_t end = 0;
  for (const TraceEvent& e : events) end = std::max(end, e.end_ns);
  return end;
}

}  // namespace hierdb::obs
