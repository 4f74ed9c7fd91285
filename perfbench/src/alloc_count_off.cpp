// Untraced binary: the library's own operator new, nothing counted.
#include "perfbench.hpp"

namespace perfbench {

std::int64_t allocations() { return -1; }

}  // namespace perfbench
