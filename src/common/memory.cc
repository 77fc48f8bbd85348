#include "common/memory.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace p2pdt {

uint64_t PeakRssBytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  // ru_maxrss is bytes on macOS, kilobytes on Linux/BSD.
  return static_cast<uint64_t>(usage.ru_maxrss);
#else
  return static_cast<uint64_t>(usage.ru_maxrss) * 1024u;
#endif
#else
  return 0;
#endif
}

}  // namespace p2pdt
