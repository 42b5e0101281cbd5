/* Philox4x32-10 counter-mode uniform generation: SIMD float32, scalar
 * float64.
 *
 * Compiled on demand by repro.gpusim.philox_native into a shared object and
 * called through ctypes; _fastpath.c #includes this file, so the native
 * iteration step draws its weights through the same philox_unit_f32.  The
 * output must be bit-identical to the NumPy uint64-lane pipeline in
 * repro.gpusim.rng:
 *
 *   - counter block i contributes words philox(counter=(lo(i), hi(i),
 *     sid_lo, sid_hi), key=key_schedule(seed)) in lane order w0..w3;
 *   - the unit mapping is (double)(word + 0.5) * 2^-32, optionally rounded
 *     once to float32 (exactly what numpy's float64 -> float32 cast does).
 *
 * `keys` is the precomputed per-round schedule: 2*ROUNDS uint32 values laid
 * out as k0_r0, k1_r0, k0_r1, k1_r1, ...  Passing the schedule instead of
 * the seed keeps the key bump out of the hot loop and guarantees the C and
 * NumPy paths share one schedule implementation.
 */
#include <stdint.h>

#define ROUNDS 10
#define M0 0xD2511F53u
#define M1 0xCD9E8D57u

static inline void philox_block(uint32_t c0, uint32_t c1, uint32_t c2,
                                uint32_t c3, const uint32_t* keys,
                                uint32_t* out) {
    for (int r = 0; r < ROUNDS; r++) {
        uint64_t p0 = (uint64_t)M0 * c0;
        uint64_t p1 = (uint64_t)M1 * c2;
        uint32_t hi0 = (uint32_t)(p0 >> 32), lo0 = (uint32_t)p0;
        uint32_t hi1 = (uint32_t)(p1 >> 32), lo1 = (uint32_t)p1;
        uint32_t n0 = hi1 ^ c1 ^ keys[2 * r];
        uint32_t n2 = hi0 ^ c3 ^ keys[2 * r + 1];
        c0 = n0;
        c1 = lo1;
        c2 = n2;
        c3 = lo0;
    }
    out[0] = c0;
    out[1] = c1;
    out[2] = c2;
    out[3] = c3;
}

/* philox_unit_f32: count unit-uniform float32 values starting at counter
 * block0, consuming ceil(count / 4) blocks; a partial final block
 * (count % 4 != 0) uses its leading words, so any n*d is supported.  The unit
 * mapping (double)(word + 0.5) * 2^-32 rounded once to float matches the
 * NumPy float64 -> float32 cast bit-for-bit.
 *
 * The bulk of the work is SIMD where the ISA allows it: counter blocks are
 * mutually independent, so the AVX-512/AVX2 paths run 16/8 blocks per
 * vector across PHILOX_CHAINS independent register chains (enough
 * parallel work to hide the 32x32->64 vpmuludq latency that a single
 * chain stalls on).  SIMD cannot change the output: every round op is
 * exact integer arithmetic, and the unit mapping's int->double->float
 * conversions are exact per lane.  The scalar loop handles the remainder
 * and non-x86 builds. */
#define PHILOX_CHAINS 4

#if defined(__AVX512F__)
#include <immintrin.h>

static void fill_unit_f32_simd(uint64_t block0, uint32_t sid_lo,
                               uint32_t sid_hi, uint64_t* i_io, uint64_t full,
                               const uint32_t* keys, float* restrict out) {
    const __m512i vM0 = _mm512_set1_epi32((int)M0);
    const __m512i vM1 = _mm512_set1_epi32((int)M1);
    const __mmask16 ODD = 0xAAAA; /* odd 32-bit lanes of each 64-bit pair */
    uint64_t i = *i_io;
    for (; i + 16 * PHILOX_CHAINS <= full; i += 16 * PHILOX_CHAINS) {
        __m512i c0[PHILOX_CHAINS], c1[PHILOX_CHAINS];
        __m512i c2[PHILOX_CHAINS], c3[PHILOX_CHAINS];
        for (int q = 0; q < PHILOX_CHAINS; q++) {
            uint32_t t0[16], t1[16];
            for (int k = 0; k < 16; k++) {
                uint64_t b = block0 + i + (uint64_t)(16 * q + k);
                t0[k] = (uint32_t)b;
                t1[k] = (uint32_t)(b >> 32);
            }
            c0[q] = _mm512_loadu_si512(t0);
            c1[q] = _mm512_loadu_si512(t1);
            c2[q] = _mm512_set1_epi32((int)sid_lo);
            c3[q] = _mm512_set1_epi32((int)sid_hi);
        }
        for (int r = 0; r < ROUNDS; r++) {
            __m512i k0 = _mm512_set1_epi32((int)keys[2 * r]);
            __m512i k1 = _mm512_set1_epi32((int)keys[2 * r + 1]);
            for (int q = 0; q < PHILOX_CHAINS; q++) {
                /* vpmuludq multiplies the even 32-bit lane of each 64-bit
                 * pair; the shifted twin covers the odd lanes, and the
                 * masked moves reassemble full lo/hi vectors. */
                __m512i pe0 = _mm512_mul_epu32(c0[q], vM0);
                __m512i po0 =
                    _mm512_mul_epu32(_mm512_srli_epi64(c0[q], 32), vM0);
                __m512i pe1 = _mm512_mul_epu32(c2[q], vM1);
                __m512i po1 =
                    _mm512_mul_epu32(_mm512_srli_epi64(c2[q], 32), vM1);
                __m512i lo0 = _mm512_mask_mov_epi32(
                    pe0, ODD, _mm512_slli_epi64(po0, 32));
                __m512i hi0 = _mm512_mask_mov_epi32(
                    _mm512_srli_epi64(pe0, 32), ODD, po0);
                __m512i lo1 = _mm512_mask_mov_epi32(
                    pe1, ODD, _mm512_slli_epi64(po1, 32));
                __m512i hi1 = _mm512_mask_mov_epi32(
                    _mm512_srli_epi64(pe1, 32), ODD, po1);
                c0[q] = _mm512_xor_si512(_mm512_xor_si512(hi1, c1[q]), k0);
                c1[q] = lo1;
                c2[q] = _mm512_xor_si512(_mm512_xor_si512(hi0, c3[q]), k1);
                c3[q] = lo0;
            }
        }
        for (int q = 0; q < PHILOX_CHAINS; q++) {
            uint32_t w0[16], w1[16], w2[16], w3[16];
            _mm512_storeu_si512(w0, c0[q]);
            _mm512_storeu_si512(w1, c1[q]);
            _mm512_storeu_si512(w2, c2[q]);
            _mm512_storeu_si512(w3, c3[q]);
            float* restrict o = out + 4 * (i + 16 * q);
            for (int k = 0; k < 16; k++) {
                o[4 * k + 0] = (float)(((double)w0[k] + 0.5) * 0x1p-32);
                o[4 * k + 1] = (float)(((double)w1[k] + 0.5) * 0x1p-32);
                o[4 * k + 2] = (float)(((double)w2[k] + 0.5) * 0x1p-32);
                o[4 * k + 3] = (float)(((double)w3[k] + 0.5) * 0x1p-32);
            }
        }
    }
    *i_io = i;
}

#elif defined(__AVX2__)
#include <immintrin.h>

static void fill_unit_f32_simd(uint64_t block0, uint32_t sid_lo,
                               uint32_t sid_hi, uint64_t* i_io, uint64_t full,
                               const uint32_t* keys, float* restrict out) {
    const __m256i vM0 = _mm256_set1_epi32((int)M0);
    const __m256i vM1 = _mm256_set1_epi32((int)M1);
    uint64_t i = *i_io;
    for (; i + 8 * PHILOX_CHAINS <= full; i += 8 * PHILOX_CHAINS) {
        __m256i c0[PHILOX_CHAINS], c1[PHILOX_CHAINS];
        __m256i c2[PHILOX_CHAINS], c3[PHILOX_CHAINS];
        for (int q = 0; q < PHILOX_CHAINS; q++) {
            uint32_t t0[8], t1[8];
            for (int k = 0; k < 8; k++) {
                uint64_t b = block0 + i + (uint64_t)(8 * q + k);
                t0[k] = (uint32_t)b;
                t1[k] = (uint32_t)(b >> 32);
            }
            c0[q] = _mm256_loadu_si256((const __m256i*)t0);
            c1[q] = _mm256_loadu_si256((const __m256i*)t1);
            c2[q] = _mm256_set1_epi32((int)sid_lo);
            c3[q] = _mm256_set1_epi32((int)sid_hi);
        }
        for (int r = 0; r < ROUNDS; r++) {
            __m256i k0 = _mm256_set1_epi32((int)keys[2 * r]);
            __m256i k1 = _mm256_set1_epi32((int)keys[2 * r + 1]);
            for (int q = 0; q < PHILOX_CHAINS; q++) {
                __m256i pe0 = _mm256_mul_epu32(c0[q], vM0);
                __m256i po0 =
                    _mm256_mul_epu32(_mm256_srli_epi64(c0[q], 32), vM0);
                __m256i pe1 = _mm256_mul_epu32(c2[q], vM1);
                __m256i po1 =
                    _mm256_mul_epu32(_mm256_srli_epi64(c2[q], 32), vM1);
                __m256i lo0 = _mm256_blend_epi32(
                    pe0, _mm256_slli_epi64(po0, 32), 0xAA);
                __m256i hi0 = _mm256_blend_epi32(
                    _mm256_srli_epi64(pe0, 32), po0, 0xAA);
                __m256i lo1 = _mm256_blend_epi32(
                    pe1, _mm256_slli_epi64(po1, 32), 0xAA);
                __m256i hi1 = _mm256_blend_epi32(
                    _mm256_srli_epi64(pe1, 32), po1, 0xAA);
                c0[q] = _mm256_xor_si256(_mm256_xor_si256(hi1, c1[q]), k0);
                c1[q] = lo1;
                c2[q] = _mm256_xor_si256(_mm256_xor_si256(hi0, c3[q]), k1);
                c3[q] = lo0;
            }
        }
        for (int q = 0; q < PHILOX_CHAINS; q++) {
            uint32_t w0[8], w1[8], w2[8], w3[8];
            _mm256_storeu_si256((__m256i*)w0, c0[q]);
            _mm256_storeu_si256((__m256i*)w1, c1[q]);
            _mm256_storeu_si256((__m256i*)w2, c2[q]);
            _mm256_storeu_si256((__m256i*)w3, c3[q]);
            float* restrict o = out + 4 * (i + 8 * q);
            for (int k = 0; k < 8; k++) {
                o[4 * k + 0] = (float)(((double)w0[k] + 0.5) * 0x1p-32);
                o[4 * k + 1] = (float)(((double)w1[k] + 0.5) * 0x1p-32);
                o[4 * k + 2] = (float)(((double)w2[k] + 0.5) * 0x1p-32);
                o[4 * k + 3] = (float)(((double)w3[k] + 0.5) * 0x1p-32);
            }
        }
    }
    *i_io = i;
}

#else

static void fill_unit_f32_simd(uint64_t block0, uint32_t sid_lo,
                               uint32_t sid_hi, uint64_t* i_io, uint64_t full,
                               const uint32_t* keys, float* restrict out) {
    (void)block0; (void)sid_lo; (void)sid_hi; (void)i_io; (void)full;
    (void)keys; (void)out;
}

#endif

void philox_unit_f32(uint64_t block0, uint64_t stream_id, uint64_t count,
                     const uint32_t* keys, float* restrict out) {
    uint32_t sid_lo = (uint32_t)stream_id;
    uint32_t sid_hi = (uint32_t)(stream_id >> 32);
    uint64_t full = count / 4;
    uint64_t i = 0;
    fill_unit_f32_simd(block0, sid_lo, sid_hi, &i, full, keys, out);
    for (; i < full; i++) {
        uint64_t b = block0 + i;
        uint32_t w[4];
        philox_block((uint32_t)b, (uint32_t)(b >> 32), sid_lo, sid_hi, keys,
                     w);
        out[4 * i + 0] = (float)(((double)w[0] + 0.5) * 0x1p-32);
        out[4 * i + 1] = (float)(((double)w[1] + 0.5) * 0x1p-32);
        out[4 * i + 2] = (float)(((double)w[2] + 0.5) * 0x1p-32);
        out[4 * i + 3] = (float)(((double)w[3] + 0.5) * 0x1p-32);
    }
    uint64_t tail = count - 4 * full;
    if (tail) {
        uint64_t b = block0 + full;
        uint32_t w[4];
        philox_block((uint32_t)b, (uint32_t)(b >> 32), sid_lo, sid_hi, keys,
                     w);
        for (uint64_t k = 0; k < tail; k++) {
            out[4 * full + k] = (float)(((double)w[k] + 0.5) * 0x1p-32);
        }
    }
}

void philox_unit_f64(uint64_t block0, uint64_t stream_id, uint64_t n_blocks,
                     const uint32_t* keys, double* out) {
    uint32_t sid_lo = (uint32_t)stream_id;
    uint32_t sid_hi = (uint32_t)(stream_id >> 32);
    for (uint64_t i = 0; i < n_blocks; i++) {
        uint64_t b = block0 + i;
        uint32_t w[4];
        philox_block((uint32_t)b, (uint32_t)(b >> 32), sid_lo, sid_hi, keys,
                     w);
        out[4 * i + 0] = ((double)w[0] + 0.5) * 0x1p-32;
        out[4 * i + 1] = ((double)w[1] + 0.5) * 0x1p-32;
        out[4 * i + 2] = ((double)w[2] + 0.5) * 0x1p-32;
        out[4 * i + 3] = ((double)w[3] + 0.5) * 0x1p-32;
    }
}
