#include "sim/simulator.h"

namespace evc::sim {

bool Simulator::Cancel(EventId id) { return queue_.Cancel(id); }

bool Simulator::Step() {
  if (queue_.empty()) return false;
  Time when = 0;
  Task fn = queue_.PopMin(&when);
  now_ = when;
  ++events_executed_;
  fn.Run();
  return true;
}

void Simulator::Run() {
  while (Step()) {
  }
}

void Simulator::RegisterCrashParticipant(uint32_t node, CrashParticipant* p) {
  EVC_CHECK(p != nullptr);
  crash_participants_[node].push_back(p);
}

void Simulator::UnregisterCrashParticipant(CrashParticipant* p) {
  for (auto& [node, participants] : crash_participants_) {
    std::erase(participants, p);
  }
}

void Simulator::NotifyCrash(uint32_t node) {
  crashed_.insert(node);
  auto it = crash_participants_.find(node);
  if (it == crash_participants_.end()) return;
  for (CrashParticipant* p : it->second) p->OnCrash(node);
}

void Simulator::NotifyRestart(uint32_t node) {
  if (crashed_.erase(node) == 0) return;
  auto it = crash_participants_.find(node);
  if (it == crash_participants_.end() || it->second.empty()) return;
  for (CrashParticipant* p : it->second) p->OnRestart(node);
  metrics_.global().CounterFor("crash.recoveries").Inc();
}

void Simulator::RunUntil(Time deadline) {
  Time when = 0;
  while (queue_.PeekWhen(&when) && when <= deadline) Step();
  if (now_ < deadline) now_ = deadline;
}

}  // namespace evc::sim
