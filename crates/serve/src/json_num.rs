//! JSON numbers for the v1 wire writers, rendered without `core::fmt`.
//!
//! The bytes must equal the vendored serializer's: a `u64` prints as its
//! decimal `Display`, and an `f64` as `null` when non-finite, as
//! `{f:.1}` when integral below 1e15 (so it re-parses as a float), and
//! otherwise as its shortest round-trip `Display`. `core::fmt` finds that
//! shortest form with Grisu and a Dragon fallback, and that was most of a
//! `Submit`'s encode. Here Ryū (Ulf Adams, PLDI 2018) finds the
//! same digits: the shortest decimal inside the value's rounding
//! interval, nearest to the value, an exact tie rounded up — one digit
//! string, so both algorithms agree on it (Ryū's own tie rule, to even,
//! gives way to `core::fmt`'s). Ryū's table of 5^i is the exact 5^i for
//! the `i ≤ 53` that values in `[2^-118, 2^54)` need, so it is computed at
//! compile time; outside that range (and for subnormals) the writer falls
//! back to `Display`. Tests compare every path with `Display`.

use std::io::Write as _;

/// `00`, `01`, …, `99`: two digits per table lookup.
const DIGIT_PAIRS: &[u8; 200] = b"\
0001020304050607080910111213141516171819\
2021222324252627282930313233343536373839\
4041424344454647484950515253545556575859\
6061626364656667686970717273747576777879\
8081828384858687888990919293949596979899";

/// The decimal digits of `v`, right-aligned in `buf`; returns where they
/// start. Eight digits at a time in `u32` halves, whose two chains of
/// divisions run side by side.
fn decimal(mut v: u64, buf: &mut [u8; 20]) -> usize {
    let mut at = buf.len();
    while v >= 100_000_000 {
        let low = (v % 100_000_000) as u32;
        v /= 100_000_000;
        let (high4, low4) = (low / 10_000, low % 10_000);
        write_pair(buf, at - 8, high4 / 100);
        write_pair(buf, at - 6, high4 % 100);
        write_pair(buf, at - 4, low4 / 100);
        write_pair(buf, at - 2, low4 % 100);
        at -= 8;
    }
    let mut v = v as u32;
    while v >= 100 {
        write_pair(buf, at - 2, v % 100);
        v /= 100;
        at -= 2;
    }
    if v >= 10 {
        write_pair(buf, at - 2, v);
        at - 2
    } else {
        buf[at - 1] = b'0' + v as u8;
        at - 1
    }
}

/// Writes the two digits of `pair` (below 100) at `buf[at..at + 2]`.
fn write_pair(buf: &mut [u8; 20], at: usize, pair: u32) {
    let i = pair as usize * 2;
    buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[i..i + 2]);
}

/// Appends `v` as `Display` would.
// hmd-analyze: hot-path
pub(crate) fn write_u64(out: &mut Vec<u8>, v: u64) {
    let mut buf = [0u8; 20];
    let at = decimal(v, &mut buf);
    out.extend_from_slice(&buf[at..]);
}

/// Appends `f` as the vendored serializer does: `null` when non-finite,
/// `{f:.1}` when integral below 1e15, shortest `Display` otherwise.
// hmd-analyze: hot-path
pub(crate) fn write_json_f64(out: &mut Vec<u8>, f: f64) {
    if !f.is_finite() {
        out.extend_from_slice(b"null");
        return;
    }
    // `Display` and `{:.1}` both print the sign, -0.0 included, then the
    // magnitude.
    if f.is_sign_negative() {
        out.push(b'-');
    }
    let a = f.abs();
    if a.fract() == 0.0 && a < 1e15 {
        // Exact in a u64: below 1e15 < 2^53.
        write_u64(out, a as u64);
        out.extend_from_slice(b".0");
    } else if let Some((digits, exp10)) = shortest(a) {
        write_scaled(out, digits, exp10);
    } else {
        // Writing into a `Vec` cannot fail.
        let _ = write!(out, "{a}");
    }
}

/// Appends `digits × 10^exp10` in `Display`'s positional form: no
/// exponent, leading `0.` below one, trailing zeros above the digits.
fn write_scaled(out: &mut Vec<u8>, mut digits: u64, mut exp10: i32) {
    while digits.is_multiple_of(10) {
        digits /= 10;
        exp10 += 1;
    }
    let mut buf = [0u8; 20];
    let at = decimal(digits, &mut buf);
    let d = &buf[at..];
    // Digits before the decimal point.
    let point = d.len() as i32 + exp10;
    if point <= 0 {
        out.extend_from_slice(b"0.");
        out.resize(out.len() + point.unsigned_abs() as usize, b'0');
        out.extend_from_slice(d);
    } else if (point as usize) < d.len() {
        let (int, frac) = d.split_at(point as usize);
        out.extend_from_slice(int);
        out.push(b'.');
        out.extend_from_slice(frac);
    } else {
        out.extend_from_slice(d);
        out.resize(out.len() + point as usize - d.len(), b'0');
    }
}

/// Bit width of Ryū's 5^i multipliers.
const POW5_BITS: i32 = 125;

/// 5^0 ..= 5^53, the powers whose bit length fits [`POW5_BITS`].
const POW5: [u128; 54] = {
    let mut table = [1u128; 54];
    let mut i = 1;
    while i < table.len() {
        table[i] = table[i - 1] * 5;
        i += 1;
    }
    table
};

/// `⌈log2(5^e)⌉`, 1 at `e = 0`: the bit length of 5^e.
fn pow5_bits(e: i32) -> i32 {
    ((e as u32 * 1_217_359) >> 19) as i32 + 1
}

/// `⌊log10(5^e)⌋`.
fn log10_pow5(e: i32) -> i32 {
    ((e as u32 * 732_923) >> 20) as i32
}

/// `⌊m × mul / 2^j⌋` for a `mul` below 2^128 split into 64-bit halves;
/// `j ≥ 64`.
fn mul_shift(m: u64, lo: u64, hi: u64, j: i32) -> u64 {
    let low = (u128::from(m) * u128::from(lo)) >> 64;
    let high = u128::from(m) * u128::from(hi);
    ((low + high) >> (j - 64)) as u64
}

/// Ryū's shortest round-trip digits of a positive finite `f`, as
/// `(digits, exp10)` with `f ≈ digits × 10^exp10`, for normal `f` in
/// `[2^-118, 2^54)`; `None` elsewhere. This is Ryū's `d2d` for a negative
/// binary exponent, with the 5^i multiplier computed exactly and ties
/// rounded up.
// hmd-analyze: hot-path
fn shortest(f: f64) -> Option<(u64, i32)> {
    let bits = f.to_bits();
    let ieee_mantissa = bits & ((1 << 52) - 1);
    let ieee_exponent = (bits >> 52) as i32 & 0x7ff;
    if ieee_exponent == 0 {
        return None;
    }
    // f = m2 × 2^e2 / 4: two extra bits to hold the interval's halfway
    // points.
    let e2 = ieee_exponent - 1023 - 52 - 2;
    if e2 >= 0 {
        return None;
    }
    let m2 = (1 << 52) | ieee_mantissa;
    let accept_bounds = m2 & 1 == 0;
    let mv = 4 * m2;
    let mm_shift = u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);

    let q = log10_pow5(-e2) - i32::from(-e2 > 1);
    let e10 = q + e2;
    let i = -e2 - q;
    let pow5 = *POW5.get(i as usize)?;
    let mul = pow5 << (POW5_BITS - pow5_bits(i));
    let (lo, hi) = (mul as u64, (mul >> 64) as u64);
    let j = q - (pow5_bits(i) - POW5_BITS);
    let mut vr = mul_shift(mv, lo, hi, j);
    let mut vp = mul_shift(mv + 2, lo, hi, j);
    let mut vm = mul_shift(mv - 1 - mm_shift, lo, hi, j);

    // Whether vm is exact: only possible here for q <= 1, where mm =
    // mv - 1 - mm_shift has a trailing zero bit iff mm_shift == 1.
    let mut vm_is_trailing_zeros = false;
    if q <= 1 {
        if accept_bounds {
            vm_is_trailing_zeros = mm_shift == 1;
        } else {
            vp -= 1;
        }
    }

    // Drop digits while the interval still holds a shorter decimal. The
    // last dropped digit rounds: 5 or more rounds up, an exact tie
    // included, as `core::fmt` does (Ryū would round a tie to even, and
    // tracks whether vr is exact only for that).
    let mut removed = 0;
    let mut round_up = false;
    while vp / 10 > vm / 10 {
        vm_is_trailing_zeros &= vm.is_multiple_of(10);
        round_up = vr % 10 >= 5;
        vr /= 10;
        vp /= 10;
        vm /= 10;
        removed += 1;
    }
    if vm_is_trailing_zeros {
        // An exact, in-bounds vm may shed its own zeros too.
        while vm.is_multiple_of(10) {
            round_up = vr % 10 >= 5;
            vr /= 10;
            vm /= 10;
            removed += 1;
        }
    }
    // vr may only stay on vm when vm is exact and in bounds.
    let output = vr + u64::from((vr == vm && !vm_is_trailing_zeros) || round_up);
    Some((output, e10 + removed))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference: the vendored serializer's own float rule.
    fn oracle(f: f64) -> String {
        serde_json::to_string(&f).expect("floats serialize")
    }

    fn direct(f: f64) -> String {
        let mut out = Vec::new();
        write_json_f64(&mut out, f);
        String::from_utf8(out).expect("ASCII")
    }

    #[test]
    fn u64_matches_display() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for v in [
            0,
            1,
            9,
            10,
            99,
            100,
            101,
            999,
            1000,
            u64::MAX,
            u64::MAX / 10,
        ] {
            let mut out = Vec::new();
            write_u64(&mut out, v);
            assert_eq!(out, v.to_string().as_bytes());
        }
        for _ in 0..10_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let v = x >> (x % 64);
            let mut out = Vec::new();
            write_u64(&mut out, v);
            assert_eq!(out, v.to_string().as_bytes());
        }
    }

    #[test]
    fn floats_match_the_serializer_across_the_bit_space() {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let check = |f: f64| assert_eq!(direct(f), oracle(f), "{f:e} ({:#x})", f.to_bits());
        for _ in 0..50_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Any bit pattern: every exponent, subnormals, NaNs, ±∞.
            check(f64::from_bits(x));
            // A value in the Ryū range, and its neighbours.
            let e = (x >> 52) % 180;
            let f = f64::from_bits((x & ((1 << 52) - 1)) | ((e + 905) << 52));
            check(f);
            check(f64::from_bits(f.to_bits() + 1));
            check(f64::from_bits(f.to_bits() - 1));
        }
    }

    #[test]
    fn floats_match_the_serializer_at_the_edges() {
        let mut edges = vec![
            0.0,
            -0.0,
            1.0,
            0.5,
            0.1,
            0.2,
            0.3,
            0.1 + 0.2,
            1.0 / 3.0,
            2.0 / 3.0,
            5e-324,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::EPSILON,
            999_999_999_999_999.0,
            999_999_999_999_999.5,
            1e15,
            1e15 + 0.5,
            9_007_199_254_740_993.0,
            1.8e16,
            123_456.789_012_345_67,
            0.875,
        ];
        for k in -40..=17 {
            let p = 10f64.powi(k);
            edges.extend([p, -p, p * 1.5, p * 0.999_999_999_999_999_9]);
        }
        for k in -125..=60 {
            let p = 2f64.powi(k);
            edges.extend([
                p,
                f64::from_bits(p.to_bits() + 1),
                f64::from_bits(p.to_bits() - 1),
            ]);
        }
        // Integers and halves up to 2^16, where trailing zeros and exact
        // ties meet the rounding rule.
        for n in 0..(1 << 16) {
            edges.push(f64::from(n) + 0.5);
            edges.push(f64::from(n) / 1024.0);
        }
        for f in edges {
            assert_eq!(direct(f), oracle(f), "{f:e} ({:#x})", f.to_bits());
        }
    }
}
