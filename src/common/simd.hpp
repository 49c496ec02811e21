// Vectorization markers for the NN substrate's hot loops. Both keep every
// result bit-identical to the scalar loop; each use site says why.
//
// Floating-point code generation is fixed library-wide in CMakeLists.txt:
//  - -ffp-contract=off: a * b + c always rounds twice. gcc's C++ default
//    is to contract it into an fma wherever the target has one, and the
//    avx512f clone of a function does;
//  - -fno-trapping-math: an expression may run where its result is then
//    discarded (x > 0 ? x : slope * x computes slope * x for every lane and
//    blends), which changes no result, only the exception flags no code
//    reads;
//  - -fopenmp-simd (gcc): honour SHOG_SIMD_LOOP below and nothing else of
//    OpenMP.
// tools/check_no_fma.sh fails on any fused multiply-add in libshog.a.
#pragma once

/// Before a loop whose iterations are independent: no iteration reads what
/// another writes, and none accumulates into a scalar. Vectorizes the loop
/// at any trip count; the -O2 default cost model ("very cheap") vectorizes
/// only loops whose trip count is a known multiple of the vector width.
/// Lanes run the scalar expression unchanged, so results are the same
/// bits. Expands to nothing where the compiler would not honour it the same
/// way (clang vectorizes such loops at -O2 by itself).
#if defined(__GNUC__) && !defined(__clang__)
#define SHOG_SIMD_LOOP _Pragma("omp simd")
#else
#define SHOG_SIMD_LOOP
#endif

/// CPU-dispatched copies of a function: one for AVX-512, one for AVX2 and
/// the baseline, picked once at load time. A clone may use wider vectors
/// but, with contraction off, the same roundings in the same order.
///
/// Multi-versioning is disabled under TSan: target_clones emits an IFUNC
/// whose resolver runs during relocation, *before* libtsan has set up its
/// thread state — the instrumented resolver's first TLS access then
/// segfaults inside the runtime (every TSan binary linking a clone died at
/// startup). The baseline clone gives the same bits, so SHOG_SANITIZE=
/// thread just runs that.
#if defined(__SANITIZE_THREAD__)
#define SHOG_UNDER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SHOG_UNDER_TSAN 1
#endif
#endif
#if defined(SHOG_UNDER_TSAN)
#define SHOG_SIMD_CLONES
#else
#define SHOG_SIMD_CLONES __attribute__((target_clones("avx512f", "avx2", "default")))
#endif
