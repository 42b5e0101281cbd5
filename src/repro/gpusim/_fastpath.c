/* The captured FastPSO iteration body as one native call.
 *
 * Compiled on demand by repro.gpusim.fastpath (via repro.gpusim.native)
 * and called through ctypes once per native iteration.  The call fuses
 * everything the Python replay does before the clock charges:
 *
 *   0. with the plan's sphere flag set, the Sphere objective: sphere_rows
 *      (below) scores the positions into the plan's values buffer, and a
 *      NaN row returns FASTPATH_NAN_ROW before any run state changes (the
 *      caller then lets the evaluator raise its EvaluationError).  Without
 *      the flag the caller has copied the evaluator's fitness there;
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
 * among them the plan-owned (n,) fitness buffer, the run's float64 base
 * velocity bounds vel_lo/vel_hi (problem.velocity_bounds at the run's
 * clamp, NULL when unclamped) and the (d,) float32 buffers step 4 writes.
 * Per-iteration values (RNG block cursor, scheduled inertia, clamp
 * fraction frac) arrive as call arguments.  Returns the number of
 * particles whose pbest improved (the dynamic-size input of the
 * pbest-copy clock charge), or FASTPATH_NAN_ROW.
 *
 * It #includes _philox.c, so the library also exports the Philox fills
 * philox_unit_f32 and philox_unit_f64 that repro.gpusim.rng draws
 * through: this is the project's one native library.
 *
 * The library also exports fp16_product, the Hadamard product of the
 * tensor-core backend (paper Sec. 3.5): both multiplicands rounded to IEEE
 * binary16, multiplied in float32.  repro.gpusim.tensorcore's
 * fragment_multiply_add calls it on the Python replay and eager tiers.
 *
 * And it exports sphere_rows, the Sphere objective (paper problem #1) over
 * the float32 positions, which repro.functions.sphere calls on every
 * Python tier and step 0 runs on the native one.
 * Its contract is bit-identity with np.einsum("ij,ij->i", p, p) on the
 * float64 copy p: it copies the summation order of NumPy's einsum inner
 * loop (see the section below), and fastpath.py checks it against einsum
 * with its own known-answer test, apart from the step's self-test.
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
    double* values;          /* (n,) plan-owned: this iteration's fitness */
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
    uint64_t sphere;         /* nonzero: step 0 scores Sphere into values */
} fastpath_plan;

/* fastpath_step's return when step 0 found a NaN row. */
#define FASTPATH_NAN_ROW (-1)

uint64_t sphere_rows(const float* x, double* out, uint64_t n, uint64_t d);

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

/* One native iteration: steps 0-5 of the header, in place on the plan's
 * buffers.  Returns the improved-pbest count, or FASTPATH_NAN_ROW (nothing
 * but the values buffer written) when step 0 scored a NaN row. */
int64_t fastpath_step(const fastpath_plan* pl, uint64_t block0, float w,
                      double frac) {
    const uint64_t n = pl->n, d = pl->d;
    const uint64_t nd = n * d;
    const double* values = pl->values;

    /* -- the objective, when it is Sphere --------------------------------- */
    if (pl->sphere && sphere_rows(pl->positions, pl->values, n, d)) {
        return FASTPATH_NAN_ROW;
    }

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
    philox_unit_f32(block0, pl->stream_id, nd, pl->keys, pl->l_weights);
    philox_unit_f32(block0 + blocks_per_draw, pl->stream_id, nd, pl->keys,
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

/* -- fp16 fragment product -------------------------------------------------
 *
 * out[i] = (float)half(a[i]) * (float)half(b[i]), bit-identical to NumPy's
 * a.astype(float16).astype(float32) * b.astype(float16).astype(float32).
 * The product itself is exact in float32 (two 11-bit significands), so only
 * the two roundings to half can differ, and NumPy's are software ports of
 * npy_floatbits_to_halfbits / npy_halfbits_to_floatbits, reproduced below.
 * F16C vcvtps2ph with round-to-nearest-even agrees with them on every
 * float32 except the signalling NaNs: F16C quiets them, while NumPy keeps
 * them signalling and bumps a payload truncated to zero to 1
 * (0x7f800001 -> half 0x7c01 -> 0x7f802000).  The multiply quiets either
 * NaN, but the payloads then differ, so any 8-lane group holding a NaN
 * operand runs the scalar ports.  out may alias a or b: each group is
 * loaded before it is stored. */

static uint16_t float_to_half_bits(uint32_t f) {
    uint16_t h_sgn = (uint16_t)((f & 0x80000000u) >> 16);
    uint32_t f_exp = f & 0x7f800000u;
    uint32_t f_sig;
    if (f_exp >= 0x47800000u) { /* overflow, inf or NaN */
        f_sig = f & 0x007fffffu;
        if (f_exp == 0x7f800000u && f_sig != 0) {
            uint16_t ret = (uint16_t)(0x7c00u + (f_sig >> 13));
            if (ret == 0x7c00u) ret++; /* keep a NaN a NaN */
            return (uint16_t)(h_sgn + ret);
        }
        return (uint16_t)(h_sgn + 0x7c00u);
    }
    if (f_exp <= 0x38000000u) { /* half subnormal or signed zero */
        if (f_exp < 0x33000000u) return h_sgn;
        f_exp >>= 23;
        f_sig = 0x00800000u + (f & 0x007fffffu);
        f_sig >>= (113 - f_exp);
        /* ties to even; the || catches bits the shift dropped */
        if (((f_sig & 0x00003fffu) != 0x00001000u) || (f & 0x000007ffu)) {
            f_sig += 0x00001000u;
        }
        return (uint16_t)(h_sgn + (uint16_t)(f_sig >> 13));
    }
    uint16_t h_exp = (uint16_t)((f_exp - 0x38000000u) >> 13);
    f_sig = f & 0x007fffffu;
    if ((f_sig & 0x00003fffu) != 0x00001000u) f_sig += 0x00001000u;
    /* a carry out of the significand bumps the exponent (to inf at most) */
    return (uint16_t)(h_sgn + h_exp + (uint16_t)(f_sig >> 13));
}

static uint32_t half_to_float_bits(uint16_t h) {
    uint16_t h_exp = h & 0x7c00u;
    uint32_t f_sgn = ((uint32_t)h & 0x8000u) << 16;
    if (h_exp == 0x0000u) {
        uint16_t h_sig = h & 0x03ffu;
        if (h_sig == 0) return f_sgn;
        h_sig <<= 1;
        while ((h_sig & 0x0400u) == 0) {
            h_sig <<= 1;
            h_exp++;
        }
        return f_sgn + (((uint32_t)(127 - 15 - h_exp)) << 23) +
               (((uint32_t)(h_sig & 0x03ffu)) << 13);
    }
    if (h_exp == 0x7c00u) {
        return f_sgn + 0x7f800000u + (((uint32_t)(h & 0x03ffu)) << 13);
    }
    return f_sgn + (((uint32_t)(h & 0x7fffu) + 0x1c000u) << 13);
}

static inline uint32_t fp16_round_bits(float x) {
    uint32_t u;
    memcpy(&u, &x, sizeof u);
    return half_to_float_bits(float_to_half_bits(u));
}

/* One lane through the scalar ports.  The product of a NaN is the first
 * NaN operand, quieted, as x86 SSE multiplies (and so NumPy's multiply
 * loop) return it.  The compiler may commute fa * fb, so both operands are
 * first set to that NaN, which makes the order irrelevant. */
static inline float fp16_lane(float a, float b) {
    uint32_t ua = fp16_round_bits(a), ub = fp16_round_bits(b);
    float fa, fb;
    if ((ua & 0x7fffffffu) > 0x7f800000u) ub = ua | 0x00400000u;
    if ((ub & 0x7fffffffu) > 0x7f800000u) ua = ub | 0x00400000u;
    memcpy(&fa, &ua, sizeof fa);
    memcpy(&fb, &ub, sizeof fb);
    return fa * fb;
}

#if defined(__F16C__) && defined(__AVX__)
#include <immintrin.h>
#endif

void fp16_product(const float* a, const float* b, float* out, uint64_t n) {
    uint64_t i = 0;
#if defined(__F16C__) && defined(__AVX__)
    for (; i + 8 <= n; i += 8) {
        __m256 va = _mm256_loadu_ps(a + i);
        __m256 vb = _mm256_loadu_ps(b + i);
        if (_mm256_movemask_ps(_mm256_cmp_ps(va, vb, _CMP_UNORD_Q))) {
            for (uint64_t k = i; k < i + 8; k++) {
                out[k] = fp16_lane(a[k], b[k]);
            }
            continue;
        }
        __m256 ha = _mm256_cvtph_ps(
            _mm256_cvtps_ph(va, _MM_FROUND_TO_NEAREST_INT));
        __m256 hb = _mm256_cvtph_ps(
            _mm256_cvtps_ph(vb, _MM_FROUND_TO_NEAREST_INT));
        _mm256_storeu_ps(out + i, _mm256_mul_ps(ha, hb));
    }
#endif
    for (; i < n; i++) {
        out[i] = fp16_lane(a[i], b[i]);
    }
}

/* -- Sphere row sums -------------------------------------------------------
 *
 * out[i] = sum_j (double)x[i][j]^2 over the float32 (n, d) positions,
 * bit-identical to NumPy's np.einsum("ij,ij->i", p, p) with
 * p = x.astype(float64).  einsum scores each row with
 * sum_of_products_contig_contig_outstride0_two, which on NumPy's 2-lane
 * (128-bit, X86_V2 baseline) build keeps two lane accumulators (lane 0
 * takes the even elements) and folds
 *   each 8-element chunk:  acc = q0 + (q1 + (q2 + (q3 + acc))),
 *                          q_t the t-th pair of squares;
 *   each remaining pair:   acc = q + acc;
 *   an odd last element:   lane0 = q + lane0;
 *   the result:            0.0 + (lane0 + lane1).
 * A float32 square is exact in double, so only these adds round and the
 * order alone fixes the bits, with or without FMA.  The order is NumPy's,
 * not the compiler's: fastpath.py checks it against np.einsum before first
 * use and disables only this kernel on a mismatch.  Which NaN an add
 * returns when both operands are NaN is up to each build's register
 * allocation, so the return value counts the NaN rows and the caller
 * rescores them with einsum.
 *
 * AVX-512 packs four rows into each zmm and AVX2 two rows into each ymm,
 * two lanes per row; each row's tail after its last full chunk, and the
 * rows left over, run the same lanes in scalar code. */

static inline double sphere_sq(float v) { return (double)v * (double)v; }

/* Row elements [j, d) on lanes l0/l1, then the final lane sum. */
static double sphere_tail(const float* r, uint64_t j, uint64_t d, double l0,
                          double l1) {
    for (; j + 8 <= d; j += 8) {
        l0 = sphere_sq(r[j]) +
             (sphere_sq(r[j + 2]) +
              (sphere_sq(r[j + 4]) + (sphere_sq(r[j + 6]) + l0)));
        l1 = sphere_sq(r[j + 1]) +
             (sphere_sq(r[j + 3]) +
              (sphere_sq(r[j + 5]) + (sphere_sq(r[j + 7]) + l1)));
    }
    for (; j + 2 <= d; j += 2) {
        l0 = sphere_sq(r[j]) + l0;
        l1 = sphere_sq(r[j + 1]) + l1;
    }
    if (j < d) l0 = sphere_sq(r[j]) + l0;
    return 0.0 + (l0 + l1);
}

#if defined(__AVX2__)
#include <immintrin.h>
#endif

uint64_t sphere_rows(const float* x, double* out, uint64_t n, uint64_t d) {
    uint64_t i = 0;
#if defined(__AVX2__)
    const uint64_t d8 = d & ~(uint64_t)7; /* elements in full chunks */
#endif
#if defined(__AVX512F__)
    for (; i + 4 <= n; i += 4) {
        const float* r = x + i * d;
        __m512d acc = _mm512_setzero_pd();
        for (uint64_t j = 0; j < d8; j += 8) {
            __m512d a = _mm512_cvtps_pd(_mm256_loadu_ps(r + j));
            __m512d b = _mm512_cvtps_pd(_mm256_loadu_ps(r + d + j));
            __m512d c = _mm512_cvtps_pd(_mm256_loadu_ps(r + 2 * d + j));
            __m512d e = _mm512_cvtps_pd(_mm256_loadu_ps(r + 3 * d + j));
            a = _mm512_mul_pd(a, a);
            b = _mm512_mul_pd(b, b);
            c = _mm512_mul_pd(c, c);
            e = _mm512_mul_pd(e, e);
            /* 4x4 transpose of 128-bit pairs: q_t = pair t of each row. */
            __m512d ab_lo = _mm512_shuffle_f64x2(a, b, _MM_SHUFFLE(1, 0, 1, 0));
            __m512d ab_hi = _mm512_shuffle_f64x2(a, b, _MM_SHUFFLE(3, 2, 3, 2));
            __m512d ce_lo = _mm512_shuffle_f64x2(c, e, _MM_SHUFFLE(1, 0, 1, 0));
            __m512d ce_hi = _mm512_shuffle_f64x2(c, e, _MM_SHUFFLE(3, 2, 3, 2));
            __m512d q0 = _mm512_shuffle_f64x2(ab_lo, ce_lo, _MM_SHUFFLE(2, 0, 2, 0));
            __m512d q1 = _mm512_shuffle_f64x2(ab_lo, ce_lo, _MM_SHUFFLE(3, 1, 3, 1));
            __m512d q2 = _mm512_shuffle_f64x2(ab_hi, ce_hi, _MM_SHUFFLE(2, 0, 2, 0));
            __m512d q3 = _mm512_shuffle_f64x2(ab_hi, ce_hi, _MM_SHUFFLE(3, 1, 3, 1));
            acc = _mm512_add_pd(
                q0, _mm512_add_pd(q1, _mm512_add_pd(q2, _mm512_add_pd(q3, acc))));
        }
        double lanes[8];
        _mm512_storeu_pd(lanes, acc);
        for (uint64_t k = 0; k < 4; k++) {
            out[i + k] =
                sphere_tail(r + k * d, d8, d, lanes[2 * k], lanes[2 * k + 1]);
        }
    }
#elif defined(__AVX2__)
    for (; i + 2 <= n; i += 2) {
        const float* r = x + i * d;
        __m256d acc = _mm256_setzero_pd();
        for (uint64_t j = 0; j < d8; j += 8) {
            __m256d a_lo = _mm256_cvtps_pd(_mm_loadu_ps(r + j));
            __m256d a_hi = _mm256_cvtps_pd(_mm_loadu_ps(r + j + 4));
            __m256d b_lo = _mm256_cvtps_pd(_mm_loadu_ps(r + d + j));
            __m256d b_hi = _mm256_cvtps_pd(_mm_loadu_ps(r + d + j + 4));
            a_lo = _mm256_mul_pd(a_lo, a_lo);
            a_hi = _mm256_mul_pd(a_hi, a_hi);
            b_lo = _mm256_mul_pd(b_lo, b_lo);
            b_hi = _mm256_mul_pd(b_hi, b_hi);
            /* q_t = pair t of each row. */
            __m256d q0 = _mm256_permute2f128_pd(a_lo, b_lo, 0x20);
            __m256d q1 = _mm256_permute2f128_pd(a_lo, b_lo, 0x31);
            __m256d q2 = _mm256_permute2f128_pd(a_hi, b_hi, 0x20);
            __m256d q3 = _mm256_permute2f128_pd(a_hi, b_hi, 0x31);
            acc = _mm256_add_pd(
                q0, _mm256_add_pd(q1, _mm256_add_pd(q2, _mm256_add_pd(q3, acc))));
        }
        double lanes[4];
        _mm256_storeu_pd(lanes, acc);
        out[i] = sphere_tail(r, d8, d, lanes[0], lanes[1]);
        out[i + 1] = sphere_tail(r + d, d8, d, lanes[2], lanes[3]);
    }
#endif
    for (; i < n; i++) {
        out[i] = sphere_tail(x + i * d, 0, d, 0.0, 0.0);
    }
    uint64_t nan_rows = 0;
    for (i = 0; i < n; i++) {
        nan_rows += out[i] != out[i];
    }
    return nan_rows;
}
