#include "core/simd/cpu_features.h"

#include <cstdint>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace pade {
namespace simd {
namespace {

#if defined(__x86_64__) || defined(__i386__)

/** XGETBV(0): which register states the OS saves/restores (XCR0). */
uint64_t
xcr0()
{
    uint32_t eax = 0;
    uint32_t edx = 0;
    // Encoded bytes rather than the _xgetbv intrinsic: the intrinsic
    // requires compiling this (baseline-ISA) file with -mxsave.
    __asm__ volatile(".byte 0x0f, 0x01, 0xd0"
                     : "=a"(eax), "=d"(edx)
                     : "c"(0));
    return (static_cast<uint64_t>(edx) << 32) | eax;
}

CpuFeatures
probe()
{
    CpuFeatures f;
    unsigned eax = 0;
    unsigned ebx = 0;
    unsigned ecx = 0;
    unsigned edx = 0;
    if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx))
        return f;
    f.popcnt = (ecx >> 23) & 1u;
    f.avx = (ecx >> 28) & 1u;

    // XCR0 is only readable when the OS enabled XSAVE (OSXSAVE).
    const bool osxsave = (ecx >> 27) & 1u;
    if (osxsave) {
        const uint64_t xcr = xcr0();
        f.os_ymm = (xcr & 0x6) == 0x6; // XMM (bit 1) + YMM (bit 2)
        // + opmask (5), ZMM0-15 upper halves (6), ZMM16-31 (7).
        f.os_zmm = (xcr & 0xE6) == 0xE6;
    }

    if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) {
        f.avx2 = (ebx >> 5) & 1u;
        f.avx512f = (ebx >> 16) & 1u;
        f.avx512bw = (ebx >> 30) & 1u;
    }
    return f;
}

#else // non-x86: nothing to probe, everything stays false.

CpuFeatures
probe()
{
    return {};
}

#endif

} // namespace

const CpuFeatures &
cpuFeatures()
{
    static const CpuFeatures f = probe();
    return f;
}

} // namespace simd
} // namespace pade
