/**
 * @file
 * Runtime CPU-feature detection for the ISA-dispatched kernels.
 *
 * The library is compiled for the baseline ISA (plus -mpopcnt); only
 * the files under src/core/simd/ are built with wider ISA flags, and
 * they are entered solely through dispatch decisions made against the
 * flags probed here. The probe uses CPUID directly (leaf 1 for
 * POPCNT/AVX/OSXSAVE, leaf 7 for AVX2 and AVX-512F/BW) and XGETBV to
 * confirm the OS actually saves the vector state — an AVX2 CPUID bit
 * without XCR0[2:1] set (e.g. a hypervisor with XSAVE masked) must not
 * dispatch to AVX2 code, nor AVX-512 bits without the opmask and ZMM
 * state bits 5-7. On non-x86 targets every flag probes false.
 */

#ifndef PADE_CORE_SIMD_CPU_FEATURES_H
#define PADE_CORE_SIMD_CPU_FEATURES_H

namespace pade {
namespace simd {

/** ISA capabilities of the executing CPU (all false off-x86). */
struct CpuFeatures
{
    bool popcnt = false; //!< hardware POPCNT (CPUID.1:ECX[23])
    bool avx = false;    //!< AVX (CPUID.1:ECX[28])
    bool avx2 = false;   //!< AVX2 (CPUID.7.0:EBX[5])
    bool os_ymm = false; //!< OS saves XMM+YMM state (XCR0[2:1] = 11)
    bool avx512f = false;  //!< AVX-512 Foundation (CPUID.7.0:EBX[16])
    bool avx512bw = false; //!< AVX-512 byte/word (CPUID.7.0:EBX[30])
    /** OS saves XMM, YMM, opmask and both ZMM halves
     *  (XCR0 & 0xE6 == 0xE6). */
    bool os_zmm = false;
};

/**
 * Cached CPUID probe of the executing CPU; the first call runs CPUID,
 * later calls return the cached result. Thread-safe (C++11 static
 * init).
 */
const CpuFeatures &cpuFeatures();

} // namespace simd
} // namespace pade

#endif // PADE_CORE_SIMD_CPU_FEATURES_H
