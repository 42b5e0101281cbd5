/* The captured FastPSO iteration body as one native call.
 *
 * Compiled on demand by repro.gpusim.fastpath (via repro.gpusim.native)
 * and called through ctypes once per replayed iteration.  The call fuses
 * everything the Python replay does between the objective evaluation and
 * the clock charges:
 *
 *   1. pbest compare-and-claim (strict <, so NaN never claims and ties
 *      keep the earlier best) with the d-wide position row copy;
 *   2. the gbest argmin scan + claim.  The scan reproduces np.argmin's
 *      tie/NaN order exactly: the first NaN wins if any is present,
 *      otherwise the first minimum — which is also what the simulated
 *      two-pass block-tree reduction produces, since its inf padding
 *      never displaces a real candidate;
 *   3. the two n*d Philox4x32-10 uniform draws (L then G) into the
 *      workspace weight buffers, consuming ceil(n*d/4) counter blocks
 *      each — the same stream consumption as ParallelRNG.uniform;
 *   4. this iteration's float32 velocity bounds (Eq. 5), one per
 *      dimension: vlo[j] = (float)(vel_lo[j] * frac), the float64 multiply
 *      and single rounding of repro.core.engine's
 *      _current_velocity_bounds followed by NumPy's float64 -> float32
 *      cast.  frac is the adaptive clamp fraction (Engine._velocity_fraction,
 *      1.0 when the clamp is not adaptive; x * 1.0 == x exactly);
 *   5. the fused velocity + position update.  The float expression
 *      replicates, per element, the exact IEEE op order of the NumPy
 *      scratch fast path in repro.core.swarm.velocity_update:
 *        s1 = pb - p;  s1 = l * s1;   s1 = s1 * c1;
 *        s2 = soc - p; s2 = g * s2;   s2 = s2 * c2;
 *        v' = v * w;   v' = v' + s1;  v' = v' + s2;  clip(v', vlo, vhi)
 *        p' = p + v';  [clip(p', plo, phi)]
 *      All arithmetic is float32; the build uses -ffp-contract=off so no
 *      multiply-add is fused into an FMA (which would change rounding).
 *      The clip matches np.clip: NaN propagates, bounds compare with <,>.
 *
 * The per-run constants and stable buffer addresses live in a
 * fastpath_plan struct built once at plan-install time (mirrored by a
 * ctypes.Structure in fastpath.py — field order and types must match):
 * among them the run's float64 base velocity bounds vel_lo/vel_hi
 * (problem.velocity_bounds at the run's clamp, NULL when unclamped) and
 * the (d,) float32 buffers step 4 writes.  Per-iteration values (fitness
 * vector, RNG block cursor, scheduled inertia, clamp fraction frac) arrive
 * as call arguments.  Returns the number of particles whose pbest improved
 * (the dynamic-size input of the pbest-copy clock charge).
 */
#include <string.h>

#include "_philox.c"

typedef struct {
    uint64_t n;         /* particles */
    uint64_t d;         /* dimensions */
    uint64_t stream_id; /* RNG stream (counter lanes 2/3) */
    float* positions;        /* (n, d) */
    float* velocities;       /* (n, d) */
    float* pbest_positions;  /* (n, d) */
    double* pbest_values;    /* (n,)  */
    float* l_weights;        /* (n, d) workspace */
    float* g_weights;        /* (n, d) workspace */
    double* gbest_value;     /* (1,) plan-owned */
    int64_t* gbest_index;    /* (1,) plan-owned */
    float* gbest_position;   /* (d,) plan-owned */
    const uint32_t* keys;    /* flat Philox key schedule (2 * ROUNDS) */
    const float* pos_lo;     /* (d,) or NULL when clip_positions is off */
    const float* pos_hi;     /* (d,) or NULL */
    const double* vel_lo;    /* (d,) float64 base bounds, NULL if unclamped */
    const double* vel_hi;    /* (d,) or NULL */
    float* vel_lo32;         /* (d,) plan-owned: this call's float32 bounds */
    float* vel_hi32;         /* (d,) plan-owned */
    float c1;                /* cognitive coefficient, float32 */
    float c2;                /* social coefficient, float32 */
} fastpath_plan;

/* count unit-uniform float32 values starting at counter block0; handles a
 * partial final block (count % 4 != 0) so any n*d is supported.  The unit
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

static void fill_unit_f32(uint64_t block0, uint64_t stream_id, uint64_t count,
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

/* Eq. 4 velocity + Eq. 5 clamp + Eq. 2 position, one pass.  A standalone
 * function with restrict parameters: every buffer is distinct by
 * construction (plan-owned gbest copy included), all elements are
 * independent, and the clamp/clip branches are loop-invariant — the
 * compiler versions the inner loop and vectorises each variant.
 * Per-element IEEE op order is unchanged by SIMD; -ffp-contract=off keeps
 * FMAs out. */
static void fused_update(uint64_t n, uint64_t d, float w, float c1, float c2,
                         const float* restrict pbp, float* restrict pos,
                         float* restrict vel, const float* restrict lw,
                         const float* restrict gw,
                         const float* restrict gbest,
                         const float* restrict vlo, const float* restrict vhi,
                         const float* restrict plo,
                         const float* restrict phi) {
    for (uint64_t i = 0; i < n; i++) {
        const uint64_t row = i * d;
        const float* restrict pb = pbp + row;
        float* restrict p = pos + row;
        float* restrict v = vel + row;
        const float* restrict l = lw + row;
        const float* restrict g = gw + row;
        for (uint64_t j = 0; j < d; j++) {
            float s1 = pb[j] - p[j];
            s1 = l[j] * s1;
            s1 = s1 * c1;
            float s2 = gbest[j] - p[j];
            s2 = g[j] * s2;
            s2 = s2 * c2;
            float nv = v[j] * w;
            nv = nv + s1;
            nv = nv + s2;
            if (vlo != NULL) {
                if (nv < vlo[j]) nv = vlo[j];
                if (nv > vhi[j]) nv = vhi[j];
            }
            v[j] = nv;
            float np_ = p[j] + nv;
            if (plo != NULL) {
                if (np_ < plo[j]) np_ = plo[j];
                if (np_ > phi[j]) np_ = phi[j];
            }
            p[j] = np_;
        }
    }
}

int64_t fastpath_step(const fastpath_plan* pl, const double* values,
                      uint64_t block0, float w, double frac) {
    const uint64_t n = pl->n, d = pl->d;
    const uint64_t nd = n * d;

    /* -- pbest compare-and-claim (Algorithm 1 lines 6-9) ------------------ */
    int64_t improved = 0;
    for (uint64_t i = 0; i < n; i++) {
        if (values[i] < pl->pbest_values[i]) {
            pl->pbest_values[i] = values[i];
            memcpy(pl->pbest_positions + i * d, pl->positions + i * d,
                   d * sizeof(float));
            improved++;
        }
    }

    /* -- gbest scan + claim (lines 10-12) --------------------------------- */
    {
        uint64_t bi = 0;
        double bv = pl->pbest_values[0];
        for (uint64_t i = 1; i < n; i++) {
            double v = pl->pbest_values[i];
            /* first minimum; a NaN claims only over a non-NaN best, which
             * reproduces np.argmin's first-NaN-wins order. */
            if (v < bv || (v != v && bv == bv)) {
                bv = v;
                bi = i;
            }
        }
        if (bv < *pl->gbest_value) {
            *pl->gbest_value = bv;
            *pl->gbest_index = (int64_t)bi;
            memcpy(pl->gbest_position, pl->pbest_positions + bi * d,
                   d * sizeof(float));
        }
    }

    /* -- weight draws: L then G (Eq. 4's random matrices) ------------------ */
    uint64_t blocks_per_draw = (nd + 3) / 4;
    fill_unit_f32(block0, pl->stream_id, nd, pl->keys, pl->l_weights);
    fill_unit_f32(block0 + blocks_per_draw, pl->stream_id, nd, pl->keys,
                  pl->g_weights);

    /* -- this iteration's velocity bounds (Eq. 5) ------------------------ */
    const float* vlo = NULL;
    const float* vhi = NULL;
    if (pl->vel_lo != NULL) {
        for (uint64_t j = 0; j < d; j++) {
            pl->vel_lo32[j] = (float)(pl->vel_lo[j] * frac);
            pl->vel_hi32[j] = (float)(pl->vel_hi[j] * frac);
        }
        vlo = pl->vel_lo32;
        vhi = pl->vel_hi32;
    }

    /* -- fused velocity (Eq. 4 + Eq. 5 clamp) + position (Eq. 2) ---------- */
    fused_update(n, d, w, pl->c1, pl->c2, pl->pbest_positions, pl->positions,
                 pl->velocities, pl->l_weights, pl->g_weights,
                 pl->gbest_position, vlo, vhi, pl->pos_lo, pl->pos_hi);
    return improved;
}
