//! Scalar functions whose bits do not depend on the platform's libm.
//!
//! [`exp`] is a port of glibc's `expf` (`sysdeps/ieee754/flt-32/e_expf.c`
//! as of glibc 2.36, in the build that fuses its multiply–adds). It
//! returns the bits glibc's `expf` returns for every `f32` input, NaN
//! payloads included, so results match those computed with glibc bit for
//! bit, on any platform. It is plain Rust marked `#[inline]`, so it
//! inlines into element loops in other crates and vectorizes there,
//! where a libm call per element did not. [`sigmoid`] is built on it.

/// log2 of the table size: `2^(k/32)` is looked up for `k mod 32`.
const TABLE_BITS: u32 = 5;
/// Table size, the `N` of the reduction `x·N/ln2 = k + r`.
const N: f64 = (1u32 << TABLE_BITS) as f64;

/// `T[i]` holds the bits of `2^(i/32)` with `i << 47` subtracted, so that
/// adding `k << 47` for any `k ≡ i (mod 32)` moves the exponent to that
/// of `2^(k/32)`.
const T: [u64; 32] = [
    0x3ff0000000000000,
    0x3fefd9b0d3158574,
    0x3fefb5586cf9890f,
    0x3fef9301d0125b51,
    0x3fef72b83c7d517b,
    0x3fef54873168b9aa,
    0x3fef387a6e756238,
    0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb,
    0x3feedea64c123422,
    0x3feece086061892d,
    0x3feebfdad5362a27,
    0x3feeb42b569d4f82,
    0x3feeab07dd485429,
    0x3feea47eb03a5585,
    0x3feea09e667f3bcd,
    0x3fee9f75e8ec5f74,
    0x3feea11473eb0187,
    0x3feea589994cce13,
    0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5,
    0x3feec49182a3f090,
    0x3feed503b23e255d,
    0x3feee89f995ad3ad,
    0x3feeff76f2fb5e47,
    0x3fef199bdd85529c,
    0x3fef3720dcef9069,
    0x3fef5818dcfba487,
    0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da,
    0x3fefd0765b6e4540,
];

/// `e^x`, bit for bit what glibc 2.36's `expf` returns.
///
/// The reduction writes `x·32/ln2 = k + r` with `|r| ≤ 1/2`, reads
/// `s = 2^(k/32)` from a 32-entry table and returns `s·2^(r/32)` with
/// `2^(r/32)` a cubic in `r`, all in `f64`, rounded to `f32` once. Both
/// multiply–adds of the reduction and the three of the polynomial are
/// fused, as in glibc's FMA build: unfused, two inputs round differently.
/// Inputs past the overflow threshold return `+∞`, inputs below the
/// underflow threshold `0.0`, and NaN returns `x + x`, as glibc does. The
/// three cases are selects after the arithmetic, not branches around it,
/// so a loop over this function vectorizes.
#[inline]
pub fn exp(x: f32) -> f32 {
    // 0x1.8p52: adding it rounds a value below 2^51 to an integer held in
    // the low mantissa bits.
    let shift = f64::from_bits(0x4338000000000000);
    let inv_ln2_n = f64::from_bits(0x3ff71547652b82fe) * N;
    let c0 = f64::from_bits(0x3fac6af84b912394) / (N * N * N);
    let c1 = f64::from_bits(0x3fcebfce50fac4f3) / (N * N);
    let c2 = f64::from_bits(0x3fe62e42ff0c52d6) / N;

    let xd = f64::from(x);
    let kd = inv_ln2_n.mul_add(xd, shift);
    let ki = kd.to_bits();
    let r = inv_ln2_n.mul_add(xd, -(kd - shift));
    let s = f64::from_bits(T[(ki % 32) as usize].wrapping_add(ki << (52 - TABLE_BITS)));
    let y = (c0.mul_add(r, c1).mul_add(r * r, c2.mul_add(r, 1.0)) * s) as f32;

    // log(0x1p128) and log(0x1p-150), rounded as glibc rounds them.
    let overflow = f32::from_bits(0x42b17217);
    let underflow = f32::from_bits(0xc2cff1b4);
    if x > overflow {
        f32::INFINITY
    } else if x < underflow {
        0.0
    } else if x.is_nan() {
        x + x
    } else {
        y
    }
}

/// The logistic function `1 / (1 + e^{-x})`, through [`exp`].
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + exp(-x))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FNV-1a over the bits of `exp(x)` for every 65 537th bit pattern,
    /// `0` through `u32::MAX` (65 536 · 65 537 = 2³² − 1 + 65 537, so the
    /// last pattern is `0xffff_ffff`).
    fn sampled_digest(f: impl Fn(f32) -> f32) -> u64 {
        let mut hash: u64 = 0xcbf29ce484222325;
        for bits in (0..=u32::MAX).step_by(65_537) {
            for byte in f(f32::from_bits(bits)).to_bits().to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x100000001b3);
            }
        }
        hash
    }

    #[test]
    fn exp_returns_pinned_bits_at_the_edges() {
        // (input bits, expected output bits), independent of the platform.
        let cases: &[(u32, u32)] = &[
            (0x0000_0000, 0x3f80_0000), // +0 -> 1
            (0x8000_0000, 0x3f80_0000), // -0 -> 1
            (0x7f80_0000, 0x7f80_0000), // +inf -> +inf
            (0xff80_0000, 0x0000_0000), // -inf -> +0
            (0x7fc0_0000, 0x7fc0_0000), // quiet NaN passes through
            (0xffc0_0001, 0xffc0_0001), // its sign and payload too
            (0x7f80_0001, 0x7fc0_0001), // signalling NaN comes back quiet
            (0x42b1_7216, 0x7f7f_ff04), // below the overflow threshold
            (0x42b1_7217, 0x7f7f_ff84), // the overflow threshold itself
            (0x42b1_7218, 0x7f80_0000), // above it: +inf
            (0xc2cf_f1b3, 0x0000_0001), // above the underflow threshold
            (0xc2cf_f1b4, 0x0000_0001), // the underflow threshold itself
            (0xc2cf_f1b5, 0x0000_0000), // below it: +0
            (0xc2b0_0000, 0x0041_edc4), // exp(-88): subnormal
            (0xc2c8_0000, 0x0000_001b), // exp(-100): subnormal
            (0xc2ce_0000, 0x0000_0001), // exp(-103): subnormal
            (0x4202_422f, 0x56fc_9f1c), // glibc's; unfused (and nearest): ..1b
            (0x3f80_0000, 0x402d_f854), // e
        ];
        for &(x, want) in cases {
            let got = exp(f32::from_bits(x)).to_bits();
            assert_eq!(got, want, "exp({x:#010x}) = {got:#010x}, want {want:#010x}");
        }
    }

    #[test]
    fn exp_sampled_digest_is_pinned() {
        assert_eq!(sampled_digest(exp), 0xedaf_3712_4554_dc73);
    }

    #[test]
    fn sigmoid_is_symmetric_and_saturates() {
        for x in [0.0f32, 0.5, 3.0, 20.0] {
            assert!((sigmoid(x) + sigmoid(-x) - 1.0).abs() <= f32::EPSILON);
        }
        assert_eq!(sigmoid(0.0), 0.5);
        assert_eq!(sigmoid(200.0), 1.0);
        assert_eq!(sigmoid(-200.0), 0.0);
    }

    /// Every one of the 2³² inputs against the platform's `f32::exp`,
    /// which is glibc's `expf` on glibc hosts. About 40 s in release:
    /// `cargo test --release -p reveil-tensor --lib math -- --ignored`.
    #[test]
    #[ignore = "exhaustive; run by hand after touching exp"]
    fn exp_matches_libm_on_every_input() {
        let mut mismatches = 0u64;
        for bits in 0..=u32::MAX {
            let x = f32::from_bits(bits);
            let (got, want) = (exp(x).to_bits(), x.exp().to_bits());
            if got != want {
                if mismatches < 8 {
                    eprintln!("exp({bits:#010x}) = {got:#010x}, libm {want:#010x}");
                }
                mismatches += 1;
            }
        }
        assert_eq!(mismatches, 0);
    }
}
