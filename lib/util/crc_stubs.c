/* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) by carry-less
   multiplication, for Trg_util.Checksum.

   The method is Gopal et al., "Fast CRC Computation for Generic
   Polynomials Using PCLMULQDQ Instruction" (Intel, 2009), in its
   bit-reflected form.  Four 128-bit lanes fold 64 bytes per step; the
   lanes then fold into one, 16-byte steps fold what is left, the
   128-bit remainder folds to 64 and then 32 bits, and a Barrett step
   reduces it modulo the polynomial.  Each constant is a power of x
   modulo P, bit-reflected, as the paper tabulates them.

   trg_crc_fold takes and returns the inverted 32-bit register, as
   Checksum.substring's loop holds it.  It reads [len] bytes of the
   string from [pos]; [len] must be a multiple of 16 and at least 64.
   It neither allocates nor raises, so the OCaml external is [@@noalloc]
   with untagged integers.  The fold is compiled for PCLMULQDQ and
   SSE4.1 by function attributes alone, and trg_crc_accelerated says,
   from CPUID, whether this processor may run it. */

#include <stddef.h>
#include <stdint.h>
#include <caml/mlvalues.h>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))

#include <immintrin.h>

#define FOLD_TARGET __attribute__((target("pclmul,sse4.1")))

/* [x] multiplied forward over one step of [k], plus the next input. */
FOLD_TARGET static inline __m128i step(__m128i x, __m128i k, __m128i next)
{
  __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

FOLD_TARGET static uint32_t fold(uint32_t crc, const uint8_t *p, size_t len)
{
  /* Low and high qwords: x^(4*128+32) and x^(4*128-32) mod P, one
     64-byte step; x^(128+32) and x^(128-32) mod P, one 16-byte step. */
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  /* x^64 mod P, for the last 32 bits. */
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  /* P and the Barrett quotient floor(x^64 / P). */
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_set_epi32(0, 0, 0, -1);
  const __m128i *q = (const __m128i *)p;

  __m128i a = _mm_xor_si128(_mm_loadu_si128(q), _mm_cvtsi32_si128((int)crc));
  __m128i b = _mm_loadu_si128(q + 1);
  __m128i c = _mm_loadu_si128(q + 2);
  __m128i d = _mm_loadu_si128(q + 3);
  for (q += 4, len -= 64; len >= 64; q += 4, len -= 64) {
    a = step(a, k1k2, _mm_loadu_si128(q));
    b = step(b, k1k2, _mm_loadu_si128(q + 1));
    c = step(c, k1k2, _mm_loadu_si128(q + 2));
    d = step(d, k1k2, _mm_loadu_si128(q + 3));
  }
  a = step(a, k3k4, b);
  a = step(a, k3k4, c);
  a = step(a, k3k4, d);
  for (; len >= 16; q++, len -= 16)
    a = step(a, k3k4, _mm_loadu_si128(q));

  /* 128 to 64 bits, then 64 to 32, then the Barrett reduction. */
  a = _mm_xor_si128(_mm_srli_si128(a, 8), _mm_clmulepi64_si128(a, k3k4, 0x10));
  a = _mm_xor_si128(_mm_srli_si128(a, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(a, low32), k5, 0x00));
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(a, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  return (uint32_t)_mm_extract_epi32(_mm_xor_si128(a, t), 1);
}

static int supported(void)
{
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}

#else

/* No fold on this target: Checksum never calls it. */
static uint32_t fold(uint32_t crc, const uint8_t *p, size_t len)
{
  (void)p;
  (void)len;
  return crc;
}

static int supported(void) { return 0; }

#endif

CAMLprim value trg_crc_accelerated(value unit)
{
  (void)unit;
  return Val_bool(supported());
}

CAMLprim intnat trg_crc_fold(intnat crc, value s, intnat pos, intnat len)
{
  return fold((uint32_t)crc, (const uint8_t *)String_val(s) + pos, (size_t)len);
}

CAMLprim value trg_crc_fold_byte(value crc, value s, value pos, value len)
{
  return Val_long(trg_crc_fold(Long_val(crc), s, Long_val(pos), Long_val(len)));
}
