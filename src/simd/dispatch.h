#ifndef SKETCHLINK_SIMD_DISPATCH_H_
#define SKETCHLINK_SIMD_DISPATCH_H_

namespace sketchlink::simd {

/// The kernel build. The kernels (simd/kernels.h) compile once, for the ISA
/// baseline of the build, and run unconditionally: no instruction-set tier
/// beat that build by more than run-to-run noise on this repository's
/// workloads (DESIGN.md §9), so there is nothing to select at run time.
enum class KernelLevel { kScalar };

/// Human-readable name of the build ("scalar").
inline const char* KernelLevelName(KernelLevel /*level*/) { return "scalar"; }

/// The build the kernels run: always kScalar.
inline KernelLevel ActiveLevel() { return KernelLevel::kScalar; }

}  // namespace sketchlink::simd

#endif  // SKETCHLINK_SIMD_DISPATCH_H_
