#include "numa/affinity.h"

#include <pthread.h>
#include <sched.h>
#include <unistd.h>

namespace mpsm::numa {

bool PinCurrentThreadToCore(uint32_t core) {
  const long online = sysconf(_SC_NPROCESSORS_ONLN);
  if (online <= 0 || core >= static_cast<uint32_t>(online)) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(core, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
}

}  // namespace mpsm::numa
