#include "core/simd/qk_dispatch.h"

#include <atomic>
#include <cctype>
#include <cstddef>
#include <cstdio>
#include <cstdlib>

#include "core/simd/cpu_features.h"
#include "core/simd/qk_simd.h"

namespace pade {
namespace {

bool
equalsIgnoreCase(std::string_view a, std::string_view b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); i++)
        if (std::tolower(static_cast<unsigned char>(a[i])) !=
            std::tolower(static_cast<unsigned char>(b[i])))
            return false;
    return true;
}

} // namespace

const char *
qkKernelName(QkKernel k)
{
    switch (k) {
    case QkKernel::kScalar: return "scalar";
    case QkKernel::kPopcount: return "popcount";
    case QkKernel::kSimd: return "simd";
    }
    return "unknown";
}

std::optional<QkKernel>
qkKernelFromName(std::string_view name)
{
    if (equalsIgnoreCase(name, "scalar"))
        return QkKernel::kScalar;
    if (equalsIgnoreCase(name, "popcount"))
        return QkKernel::kPopcount;
    if (equalsIgnoreCase(name, "simd"))
        return QkKernel::kSimd;
    return std::nullopt;
}

bool
qkSimdAvailable()
{
    static const bool available = [] {
        const simd::CpuFeatures &f = simd::cpuFeatures();
        return simd::qkAvx2Compiled() && f.avx2 && f.os_ymm;
    }();
    return available;
}

simd::TileKernel
simd::tileKernel()
{
    static const TileKernel kernel = [] {
        const CpuFeatures &f = cpuFeatures();
        return qkAvx512Compiled() && f.avx512f && f.avx512bw && f.os_zmm
            ? &scanTileAvx512
            : &scanTileAvx2;
    }();
    return kernel;
}

void
simd::valueRowScalar(float *acc, const int8_t *v, int dim, float p,
                     float scale)
{
    for (int d = 0; d < dim; d++)
        acc[d] += p * (scale * static_cast<float>(v[d]));
}

simd::ValueRowKernel
simd::valueRowKernel()
{
    static const ValueRowKernel kernel = [] {
        const CpuFeatures &f = cpuFeatures();
        return qkAvx2Compiled() && f.avx2 && f.os_ymm ? &valueRowAvx2
                                                      : &valueRowScalar;
    }();
    return kernel;
}

QkKernel
defaultQkKernel()
{
    return qkSimdAvailable() ? QkKernel::kSimd : QkKernel::kPopcount;
}

QkKernel
resolveQkKernel(QkKernel requested)
{
    if (const char *env = std::getenv(kQkKernelEnv)) {
        if (const auto k = qkKernelFromName(env)) {
            requested = *k;
        } else if (equalsIgnoreCase(env, "auto")) {
            requested = defaultQkKernel();
        } else {
            // Atomic: padeAttention resolves per call, possibly from
            // many BatchDriver workers at once.
            static std::atomic<bool> warned{false};
            if (!warned.exchange(true, std::memory_order_relaxed))
                std::fprintf(stderr,
                             "pade: ignoring %s=\"%s\" (expected "
                             "scalar|popcount|simd|auto)\n",
                             kQkKernelEnv, env);
        }
    }
    if (requested == QkKernel::kSimd && !qkSimdAvailable())
        return QkKernel::kPopcount;
    return requested;
}

} // namespace pade
