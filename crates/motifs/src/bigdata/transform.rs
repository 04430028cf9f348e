//! Transform motif: FFT, inverse FFT and DCT.
//!
//! The FFT is an iterative radix-2 Cooley–Tukey implementation over
//! interleaved complex values; the DCT-II is computed directly (the motif
//! exercises the same multiply-accumulate pattern whether or not it is
//! FFT-accelerated).

use std::f64::consts::PI;

/// A complex number as a `(re, im)` pair.
pub(crate) type Complex = (f64, f64);

fn complex_mul(a: Complex, b: Complex) -> Complex {
    (a.0 * b.0 - a.1 * b.1, a.0 * b.1 + a.1 * b.0)
}

/// In-place radix-2 FFT.  `inverse` selects the inverse transform (with
/// 1/N normalisation).
///
/// # Panics
///
/// Panics if the length is not a power of two.
pub(crate) fn fft_in_place(data: &mut [Complex], inverse: bool) {
    let n = data.len();
    if n <= 1 {
        return;
    }
    assert!(n.is_power_of_two(), "FFT length must be a power of two");

    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i as u32).reverse_bits() >> (32 - bits);
        let j = j as usize;
        if i < j {
            data.swap(i, j);
        }
    }

    // Butterflies.
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let angle = sign * 2.0 * PI / len as f64;
        let wlen = (angle.cos(), angle.sin());
        for start in (0..n).step_by(len) {
            let mut w = (1.0, 0.0);
            for k in 0..len / 2 {
                let u = data[start + k];
                let v = complex_mul(data[start + k + len / 2], w);
                data[start + k] = (u.0 + v.0, u.1 + v.1);
                data[start + k + len / 2] = (u.0 - v.0, u.1 - v.1);
                w = complex_mul(w, wlen);
            }
        }
        len <<= 1;
    }

    if inverse {
        let scale = 1.0 / n as f64;
        for v in data.iter_mut() {
            v.0 *= scale;
            v.1 *= scale;
        }
    }
}

/// Forward FFT of a real signal, returning complex spectrum values.
pub fn fft_real(signal: &[f64]) -> Vec<Complex> {
    let mut data: Vec<Complex> = signal.iter().map(|&x| (x, 0.0)).collect();
    fft_in_place(&mut data, false);
    data
}

/// Inverse FFT returning only the real parts.
pub fn ifft_real(spectrum: &[Complex]) -> Vec<f64> {
    let mut data = spectrum.to_vec();
    fft_in_place(&mut data, true);
    data.into_iter().map(|(re, _)| re).collect()
}

/// DCT-II of a real signal (unnormalised).
pub(crate) fn dct2(signal: &[f64]) -> Vec<f64> {
    let n = signal.len();
    (0..n)
        .map(|k| {
            signal
                .iter()
                .enumerate()
                .map(|(i, &x)| x * ((PI / n as f64) * (i as f64 + 0.5) * k as f64).cos())
                .sum()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx_eq(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut signal = vec![0.0; 8];
        signal[0] = 1.0;
        let spectrum = fft_real(&signal);
        for (re, im) in spectrum {
            assert!(approx_eq(re, 1.0) && approx_eq(im, 0.0));
        }
    }

    #[test]
    fn fft_of_constant_concentrates_in_dc() {
        let spectrum = fft_real(&[1.0; 16]);
        assert!(approx_eq(spectrum[0].0, 16.0));
        for &(re, im) in &spectrum[1..] {
            assert!(approx_eq(re, 0.0) && approx_eq(im, 0.0));
        }
    }

    #[test]
    fn ifft_inverts_fft() {
        let signal: Vec<f64> = (0..64)
            .map(|i| (i as f64 * 0.37).sin() + 0.2 * i as f64)
            .collect();
        let spectrum = fft_real(&signal);
        let recovered = ifft_real(&spectrum);
        for (a, b) in signal.iter().zip(&recovered) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn fft_detects_single_tone() {
        let n = 64;
        let freq = 5;
        let signal: Vec<f64> = (0..n)
            .map(|i| (2.0 * PI * freq as f64 * i as f64 / n as f64).cos())
            .collect();
        let spectrum = fft_real(&signal);
        let magnitudes: Vec<f64> = spectrum
            .iter()
            .map(|(re, im)| (re * re + im * im).sqrt())
            .collect();
        let peak = magnitudes
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert!(peak == freq || peak == n - freq, "peak at {peak}");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn fft_rejects_non_power_of_two() {
        let mut data = vec![(0.0, 0.0); 12];
        fft_in_place(&mut data, false);
    }

    #[test]
    fn dct_of_constant_signal() {
        let out = dct2(&[1.0; 8]);
        assert!(approx_eq(out[0], 8.0));
        for &v in &out[1..] {
            assert!(approx_eq(v, 0.0));
        }
    }

    #[test]
    fn dct_is_linear() {
        let a: Vec<f64> = (0..16).map(|i| (i as f64 * 0.3).sin()).collect();
        let b: Vec<f64> = (0..16).map(|i| (i as f64 * 0.7).cos()).collect();
        let sum: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        let lhs = dct2(&sum);
        let rhs: Vec<f64> = dct2(&a).iter().zip(dct2(&b)).map(|(x, y)| x + y).collect();
        for (x, y) in lhs.iter().zip(&rhs) {
            assert!((x - y).abs() < 1e-9);
        }
    }
}
