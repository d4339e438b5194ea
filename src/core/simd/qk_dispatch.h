/**
 * @file
 * QK scoring kernel selection — the library's ISA-dispatch seam.
 *
 * Three kernels compute the identical integer plane deltas; outputs,
 * retention masks, and statistics are bit-identical by contract
 * (enforced by the property tests), so the choice is purely a
 * throughput decision:
 *
 *  - QkKernel::kScalar — per-set-bit ctz walk; the exactness oracle.
 *  - QkKernel::kPopcount — word-parallel weighted popcount over
 *    packed 64-bit words (baseline ISA + POPCNT).
 *  - QkKernel::kSimd — the widest SIMD backend the CPU and OS
 *    support (src/core/simd/qk_simd.h): the AVX-512BW tile kernel
 *    where CPUID reports AVX-512F/BW and XCR0 shows the ZMM state
 *    saved, the AVX2 one otherwise. It requires the backend to be
 *    compiled in (CMake option PADE_AVX2) *and* the executing CPU/OS
 *    to support AVX2 (runtime CPUID + XGETBV probe). The choice
 *    between the two ISAs is the CPU's, never a setting.
 *
 * Selection: PadeConfig::qk_kernel names the requested kernel and
 * defaults to defaultQkKernel() (kSimd when available, else
 * kPopcount). resolveQkKernel() applies the PADE_QK_KERNEL
 * environment override — "scalar" | "popcount" | "simd" | "auto" —
 * and downgrades an unavailable kSimd to kPopcount, so requesting
 * SIMD is always safe. A new ISA (NEON, say) is a new tile kernel
 * behind kSimd, selected in simd::tileKernel().
 */

#ifndef PADE_CORE_SIMD_QK_DISPATCH_H
#define PADE_CORE_SIMD_QK_DISPATCH_H

#include <optional>
#include <string_view>

namespace pade {

/** QK scoring kernel (see file comment for the dispatch story). */
enum class QkKernel
{
    kScalar,   //!< per-set-bit scalar reference (oracle)
    kPopcount, //!< word-parallel weighted-popcount kernel
    kSimd,     //!< AVX-512BW or AVX2 backend (else kPopcount)
};

/** Environment variable overriding the configured kernel. */
inline constexpr const char kQkKernelEnv[] = "PADE_QK_KERNEL";

/** Lower-case name of @p k ("scalar" / "popcount" / "simd"). */
const char *qkKernelName(QkKernel k);

/**
 * Parse a kernel name (case-insensitive); nullopt for anything else
 * (including "auto", which is resolveQkKernel()'s job).
 */
std::optional<QkKernel> qkKernelFromName(std::string_view name);

/**
 * True when kSimd can actually execute vector code here: the AVX2
 * translation unit was compiled (PADE_AVX2) and the runtime probe
 * reports AVX2 with OS-saved YMM state. Cached after the first call.
 */
bool qkSimdAvailable();

/** kSimd when qkSimdAvailable(), else kPopcount. */
QkKernel defaultQkKernel();

/**
 * Final dispatch decision for one execution: applies the
 * PADE_QK_KERNEL environment override (if set and valid; "auto"
 * selects defaultQkKernel(), an unknown value warns once on stderr
 * and is ignored), then downgrades kSimd to kPopcount when the
 * backend is unavailable. The environment is re-read on every call
 * so benchmarking harnesses can flip kernels between runs.
 */
QkKernel resolveQkKernel(QkKernel requested);

} // namespace pade

#endif // PADE_CORE_SIMD_QK_DISPATCH_H
