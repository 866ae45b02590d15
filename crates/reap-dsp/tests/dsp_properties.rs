//! Property tests for the DSP kernels: transform identities that must
//! hold on arbitrary signals, not just the hand-picked unit-test cases.

#![allow(clippy::needless_range_loop)] // bin indices mirror DFT notation

use proptest::prelude::*;
use reap_dsp::fft::{fft_in_place, fft_real, Complex};
use reap_dsp::{decimate, dwt, goertzel, stats};

fn arb_signal(len: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-100.0f64..100.0, len)
}

fn arb_pow2_signal() -> impl Strategy<Value = Vec<f64>> {
    prop_oneof![Just(8usize), Just(16), Just(32), Just(64)]
        .prop_flat_map(|n| proptest::collection::vec(-100.0f64..100.0, n))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn fft_roundtrip_recovers_signal(x in arb_pow2_signal()) {
        let mut buf: Vec<Complex> = x.iter().map(|&v| Complex::from_real(v)).collect();
        fft_in_place(&mut buf, false).expect("power of two");
        fft_in_place(&mut buf, true).expect("power of two");
        for (orig, c) in x.iter().zip(&buf) {
            prop_assert!((c.re - orig).abs() < 1e-8 * (1.0 + orig.abs()));
            prop_assert!(c.im.abs() < 1e-8 * (1.0 + orig.abs()));
        }
    }

    #[test]
    fn parseval_holds(x in arb_pow2_signal()) {
        let time: f64 = x.iter().map(|v| v * v).sum();
        let freq: f64 = fft_real(&x)
            .expect("power of two")
            .iter()
            .map(|c| c.re * c.re + c.im * c.im)
            .sum::<f64>() / x.len() as f64;
        prop_assert!((time - freq).abs() < 1e-6 * (1.0 + time));
    }

    #[test]
    fn goertzel_matches_fft_on_every_bin(x in arb_pow2_signal()) {
        let spectrum = fft_real(&x).expect("power of two");
        let energy: f64 = x.iter().map(|v| v.abs()).sum();
        for k in 0..x.len() / 2 {
            let g = goertzel::goertzel_magnitude(&x, k).expect("valid bin");
            prop_assert!(
                (g - spectrum[k].abs()).abs() < 1e-7 * (1.0 + energy),
                "bin {k}: {g} vs {}", spectrum[k].abs()
            );
        }
    }

    #[test]
    fn dwt_level_preserves_energy_and_inverts(x in arb_pow2_signal()) {
        for wavelet in [dwt::Wavelet::Haar, dwt::Wavelet::Db4] {
            let (a, d) = dwt::dwt_level(&x, wavelet).expect("power of two");
            let e_in: f64 = x.iter().map(|v| v * v).sum();
            let e_out: f64 = a.iter().chain(&d).map(|v| v * v).sum();
            prop_assert!((e_in - e_out).abs() < 1e-6 * (1.0 + e_in));
            let back = dwt::idwt_level(&a, &d, wavelet).expect("non-empty");
            for (orig, rec) in x.iter().zip(&back) {
                prop_assert!((orig - rec).abs() < 1e-7 * (1.0 + orig.abs()));
            }
        }
    }

    #[test]
    fn decimation_preserves_mean(x in arb_signal(160)) {
        let out = decimate::decimate_to(&x, 16).expect("160 >= 16");
        let mean_in: f64 = x.iter().sum::<f64>() / 160.0;
        let mean_out: f64 = out.iter().sum::<f64>() / 16.0;
        // Equal-size blocks (160/16 = 10) make block-mean averaging exact.
        prop_assert!((mean_in - mean_out).abs() < 1e-9 * (1.0 + mean_in.abs()));
    }

    #[test]
    fn summary_invariants(x in arb_signal(64)) {
        let s = stats::Summary::of(&x).expect("non-empty");
        prop_assert!(s.min <= s.mean + 1e-12);
        prop_assert!(s.mean <= s.max + 1e-12);
        prop_assert!(s.std_dev >= 0.0);
        prop_assert!(s.rms >= 0.0);
        prop_assert!(s.rms + 1e-9 >= s.mean.abs());
        prop_assert!(s.mean_crossings < x.len());
        // Shifting the signal shifts mean/min/max but not std or crossings.
        let shifted: Vec<f64> = x.iter().map(|v| v + 37.0).collect();
        let t = stats::Summary::of(&shifted).expect("non-empty");
        prop_assert!((t.mean - s.mean - 37.0).abs() < 1e-9);
        prop_assert!((t.std_dev - s.std_dev).abs() < 1e-8);
        prop_assert_eq!(t.mean_crossings, s.mean_crossings);
    }

    #[test]
    fn autocorrelation_is_bounded(x in arb_signal(64), lag in 0usize..32) {
        let r = stats::autocorrelation(&x, lag).expect("lag < len");
        prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r), "r = {r}");
    }

    #[test]
    fn subband_energy_scales_quadratically(x in arb_pow2_signal()) {
        let e1 = dwt::subband_energies(&x, dwt::Wavelet::Haar, 2);
        prop_assume!(e1.is_ok());
        let e1 = e1.expect("checked");
        let doubled: Vec<f64> = x.iter().map(|v| v * 2.0).collect();
        let e2 = dwt::subband_energies(&doubled, dwt::Wavelet::Haar, 2).expect("same shape");
        for (a, b) in e1.iter().zip(&e2) {
            prop_assert!((b - 4.0 * a).abs() < 1e-6 * (1.0 + a.abs()));
        }
    }
}
