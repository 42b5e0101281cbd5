/* Philox4x32-10 counter-mode uniform generation: one SIMD body for the
 * float32 and float64 fills.
 *
 * _fastpath.c #includes this file, so its shared object (built by
 * repro.gpusim.native) exports philox_unit_f32 and philox_unit_f64, which
 * repro.gpusim.rng calls through ctypes, and the native iteration step
 * draws its weights through the same philox_unit_f32.  The output must be
 * bit-identical to the NumPy uint64-lane pipeline in repro.gpusim.rng:
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
 *
 * SIMD layout.  Counter blocks are mutually independent, so the AVX-512 and
 * AVX2 paths give each block its own 64-bit lane: a vector holds 8
 * (AVX-512) or 4 (AVX2) blocks, one vector per counter word.  vpmuludq
 * multiplies only the low 32 bits of each lane and returns the full 64-bit
 * product, so one multiply yields both halves of Philox's mulhilo: the low
 * word is the product itself and the high word is the product shifted right
 * by 32.  The upper half of a lane may therefore hold garbage for the whole
 * run: the multiplier never reads it, xor keeps it in the upper half, and
 * the unit mapping masks it off.  A round is two multiplies, two shifts and
 * two three-way xors per vector (one vpternlogq each on AVX-512).
 *
 * A fill runs groups of PHILOX_CHAINS vectors (independent register chains
 * that hide the multiply latency a single chain stalls on: 32 blocks per
 * AVX-512 group, 16 per AVX2 group), then one-vector groups, then the scalar
 * philox_block for the last few whole blocks and the partial final block.
 * After the rounds a vector's four words are transposed into block-major
 * order, and each lane's word w becomes the double 1 + (2w + 1) * 2^-33 by
 * bit assembly, so subtracting 1.0 gives exactly (w + 0.5) * 2^-32.  SIMD
 * cannot change the output: every round op is exact integer arithmetic,
 * the mapping is exact in double, and the float32 fill rounds each double
 * once, as the scalar path does.  PHILOX_CHAINS = 4 measured fastest among
 * 2, 4, 6, 8 and 12 on an AVX-512 Xeon (6 tied; 2, 8 and 12 were slower).
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

#define PHILOX_INLINE static inline __attribute__((always_inline))

/* Bits of the double 1 + (2w + 1) * 2^-33: (w << 20) in the mantissa
 * field, its bit 19 set, and the exponent of 1.0. */
#define UNIT_MANTISSA 0x000FFFFFFFF00000ll
#define UNIT_ONE_HALF 0x3FF0000000080000ll

/* Each ISA section defines PHILOX_LANES (blocks per vector), PHILOX_CHAINS,
 * the vector type pvec, the 64-bit-lane ops pv_set1/pv_iota/pv_add/pv_mul
 * (vpmuludq), pv_hi (>> 32) and pv_xor3, and two emit helpers:
 * pv_transpose turns the four word vectors into block-major order and
 * pv_unit maps one vector's words to doubles. */
#if defined(__AVX512F__)
#include <immintrin.h>

#define PHILOX_LANES 8
#define PHILOX_CHAINS 4
typedef __m512i pvec;
#define pv_set1(x) _mm512_set1_epi64((long long)(x))
#define pv_iota() _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7)
#define pv_add(a, b) _mm512_add_epi64(a, b)
#define pv_mul(a, b) _mm512_mul_epu32(a, b)
#define pv_hi(a) _mm512_srli_epi64(a, 32)
#define pv_xor3(a, b, c) _mm512_ternarylogic_epi64(a, b, c, 0x96)

/* Afterwards w[t] holds blocks 2t and 2t + 1. */
PHILOX_INLINE void pv_transpose(pvec* w) {
    const __m512i lo = _mm512_setr_epi64(0, 8, 1, 9, 2, 10, 3, 11);
    const __m512i hi = _mm512_setr_epi64(4, 12, 5, 13, 6, 14, 7, 15);
    const __m512i even = _mm512_setr_epi64(0, 1, 8, 9, 2, 3, 10, 11);
    const __m512i odd = _mm512_setr_epi64(4, 5, 12, 13, 6, 7, 14, 15);
    __m512i a = _mm512_permutex2var_epi64(w[0], lo, w[1]);
    __m512i b = _mm512_permutex2var_epi64(w[0], hi, w[1]);
    __m512i c = _mm512_permutex2var_epi64(w[2], lo, w[3]);
    __m512i d = _mm512_permutex2var_epi64(w[2], hi, w[3]);
    w[0] = _mm512_permutex2var_epi64(a, even, c);
    w[1] = _mm512_permutex2var_epi64(a, odd, c);
    w[2] = _mm512_permutex2var_epi64(b, even, d);
    w[3] = _mm512_permutex2var_epi64(b, odd, d);
}

PHILOX_INLINE __m512d pv_unit(pvec w) {
    __m512i bits = _mm512_ternarylogic_epi64(
        _mm512_slli_epi64(w, 20), pv_set1(UNIT_MANTISSA),
        pv_set1(UNIT_ONE_HALF), 0xEA); /* (a & b) | c */
    return _mm512_sub_pd(_mm512_castsi512_pd(bits), _mm512_set1_pd(1.0));
}

#define pv_store_f64(p, u) _mm512_storeu_pd(p, u)
#define pv_store_f32(p, u) _mm256_storeu_ps(p, _mm512_cvtpd_ps(u))

#elif defined(__AVX2__)
#include <immintrin.h>

/* AVX2 has no three-way xor, but the 64-bit-lane round still measured
 * faster (a -mno-avx512f build on an AVX-512 Xeon) than a 32-bit-lane one,
 * whose odd lanes need a shifted second multiply and blends to rebuild the
 * lo/hi words. */
#define PHILOX_LANES 4
#define PHILOX_CHAINS 4
typedef __m256i pvec;
#define pv_set1(x) _mm256_set1_epi64x((long long)(x))
#define pv_iota() _mm256_setr_epi64x(0, 1, 2, 3)
#define pv_add(a, b) _mm256_add_epi64(a, b)
#define pv_mul(a, b) _mm256_mul_epu32(a, b)
#define pv_hi(a) _mm256_srli_epi64(a, 32)
#define pv_xor3(a, b, c) _mm256_xor_si256(_mm256_xor_si256(a, b), c)

/* Afterwards w[t] holds block t. */
PHILOX_INLINE void pv_transpose(pvec* w) {
    __m256i a = _mm256_unpacklo_epi64(w[0], w[1]);
    __m256i b = _mm256_unpackhi_epi64(w[0], w[1]);
    __m256i c = _mm256_unpacklo_epi64(w[2], w[3]);
    __m256i d = _mm256_unpackhi_epi64(w[2], w[3]);
    w[0] = _mm256_permute2x128_si256(a, c, 0x20);
    w[1] = _mm256_permute2x128_si256(b, d, 0x20);
    w[2] = _mm256_permute2x128_si256(a, c, 0x31);
    w[3] = _mm256_permute2x128_si256(b, d, 0x31);
}

PHILOX_INLINE __m256d pv_unit(pvec w) {
    __m256i bits = _mm256_or_si256(
        _mm256_and_si256(_mm256_slli_epi64(w, 20), pv_set1(UNIT_MANTISSA)),
        pv_set1(UNIT_ONE_HALF));
    return _mm256_sub_pd(_mm256_castsi256_pd(bits), _mm256_set1_pd(1.0));
}

#define pv_store_f64(p, u) _mm256_storeu_pd(p, u)
#define pv_store_f32(p, u) _mm_storeu_ps(p, _mm256_cvtpd_ps(u))

#endif

#if defined(PHILOX_LANES)
/* Blocks b .. b + chains * PHILOX_LANES - 1 into `out`, as float64 when
 * `wide`, else float32.  `chains` and `wide` are compile-time constants at
 * every call site, so each instance keeps its chains in registers. */
PHILOX_INLINE void philox_group(uint64_t b, uint32_t sid_lo, uint32_t sid_hi,
                                const uint32_t* keys, void* out,
                                const int chains, const int wide) {
    const pvec m0 = pv_set1(M0), m1 = pv_set1(M1);
    pvec c0[PHILOX_CHAINS], c1[PHILOX_CHAINS];
    pvec c2[PHILOX_CHAINS], c3[PHILOX_CHAINS];
    const pvec ctr = pv_add(pv_set1(b), pv_iota());
    for (int q = 0; q < chains; q++) {
        c0[q] = pv_add(ctr, pv_set1(PHILOX_LANES * q));
        c1[q] = pv_hi(c0[q]);
        c2[q] = pv_set1(sid_lo);
        c3[q] = pv_set1(sid_hi);
    }
    for (int r = 0; r < ROUNDS; r++) {
        const pvec k0 = pv_set1(keys[2 * r]), k1 = pv_set1(keys[2 * r + 1]);
        for (int q = 0; q < chains; q++) {
            pvec p0 = pv_mul(c0[q], m0);
            pvec p1 = pv_mul(c2[q], m1);
            c0[q] = pv_xor3(pv_hi(p1), c1[q], k0);
            c2[q] = pv_xor3(pv_hi(p0), c3[q], k1);
            c1[q] = p1;
            c3[q] = p0;
        }
    }
    for (int q = 0; q < chains; q++) {
        pvec w[4] = {c0[q], c1[q], c2[q], c3[q]};
        pv_transpose(w);
        for (int t = 0; t < 4; t++) {
            uint64_t at = (uint64_t)PHILOX_LANES * (4 * q + t);
            if (wide) {
                pv_store_f64((double*)out + at, pv_unit(w[t]));
            } else {
                pv_store_f32((float*)out + at, pv_unit(w[t]));
            }
        }
    }
}
#endif

PHILOX_INLINE void put_unit(void* out, uint64_t at, uint32_t w,
                            const int wide) {
    double u = ((double)w + 0.5) * 0x1p-32;
    if (wide) {
        ((double*)out)[at] = u;
    } else {
        ((float*)out)[at] = (float)u;
    }
}

/* count unit uniforms starting at counter block block0, consuming
 * ceil(count / 4) blocks; a partial final block (count % 4 != 0) uses its
 * leading words, so any n*d is supported. */
PHILOX_INLINE void philox_fill(uint64_t block0, uint64_t stream_id,
                               uint64_t count, const uint32_t* keys,
                               void* out, const int wide) {
    uint32_t sid_lo = (uint32_t)stream_id;
    uint32_t sid_hi = (uint32_t)(stream_id >> 32);
    uint64_t full = count / 4;
    uint64_t i = 0;
#if defined(PHILOX_LANES)
    const uint64_t block_size = 4 * (wide ? sizeof(double) : sizeof(float));
    for (; i + PHILOX_LANES * PHILOX_CHAINS <= full;
         i += PHILOX_LANES * PHILOX_CHAINS) {
        philox_group(block0 + i, sid_lo, sid_hi, keys,
                     (char*)out + block_size * i, PHILOX_CHAINS, wide);
    }
    for (; i + PHILOX_LANES <= full; i += PHILOX_LANES) {
        philox_group(block0 + i, sid_lo, sid_hi, keys,
                     (char*)out + block_size * i, 1, wide);
    }
#endif
    uint32_t w[4];
    for (; i < full; i++) {
        uint64_t b = block0 + i;
        philox_block((uint32_t)b, (uint32_t)(b >> 32), sid_lo, sid_hi, keys,
                     w);
        for (int k = 0; k < 4; k++) {
            put_unit(out, 4 * i + k, w[k], wide);
        }
    }
    uint64_t tail = count - 4 * full;
    if (tail) {
        uint64_t b = block0 + full;
        philox_block((uint32_t)b, (uint32_t)(b >> 32), sid_lo, sid_hi, keys,
                     w);
        for (uint64_t k = 0; k < tail; k++) {
            put_unit(out, 4 * full + k, w[k], wide);
        }
    }
}

void philox_unit_f32(uint64_t block0, uint64_t stream_id, uint64_t count,
                     const uint32_t* keys, float* out) {
    philox_fill(block0, stream_id, count, keys, out, 0);
}

void philox_unit_f64(uint64_t block0, uint64_t stream_id, uint64_t n_blocks,
                     const uint32_t* keys, double* out) {
    philox_fill(block0, stream_id, 4 * n_blocks, keys, out, 1);
}
