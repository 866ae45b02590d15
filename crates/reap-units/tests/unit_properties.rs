//! Property tests for the quantity newtypes: the dimensional algebra must
//! be consistent under arbitrary finite values.

use proptest::prelude::*;
use reap_units::{approx_eq, Energy, Power, TimeSpan};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn power_time_energy_triangle(
        watts in 1e-6f64..1e3,
        seconds in 1e-3f64..1e6,
    ) {
        let p = Power::from_watts(watts);
        let t = TimeSpan::from_seconds(seconds);
        let e = p * t;
        // e / t = p, e / p = t (up to float rounding).
        prop_assert!(approx_eq((e / t).watts(), watts, 1e-12, 1e-12));
        prop_assert!(approx_eq((e / p).seconds(), seconds, 1e-9, 1e-12));
        // Commutativity of the product.
        prop_assert_eq!(e, t * p);
    }

    #[test]
    fn unit_conversions_roundtrip(joules in -1e6f64..1e6) {
        let e = Energy::from_joules(joules);
        prop_assert!(approx_eq(Energy::from_millijoules(e.millijoules()).joules(), joules, 1e-9, 1e-12));
        prop_assert!(approx_eq(e.microjoules() * 1e-6, joules, 1e-9, 1e-12));
        let p = Power::from_watts(joules);
        prop_assert!(approx_eq(Power::from_milliwatts(p.milliwatts()).watts(), joules, 1e-9, 1e-12));
        let t = TimeSpan::from_seconds(joules);
        prop_assert!(approx_eq(TimeSpan::from_hours(t.hours()).seconds(), joules, 1e-9, 1e-12));
        prop_assert!(approx_eq(t.minutes() * 60.0, joules, 1e-9, 1e-12));
    }

    #[test]
    fn addition_is_commutative_and_sub_inverts(
        a in -1e6f64..1e6,
        b in -1e6f64..1e6,
    ) {
        let (ea, eb) = (Energy::from_joules(a), Energy::from_joules(b));
        prop_assert_eq!(ea + eb, eb + ea);
        prop_assert!(approx_eq(((ea + eb) - eb).joules(), a, 1e-6, 1e-12));
        let (pa, pb) = (Power::from_watts(a), Power::from_watts(b));
        prop_assert_eq!(pa + pb, pb + pa);
        let (ta, tb) = (TimeSpan::from_seconds(a), TimeSpan::from_seconds(b));
        prop_assert_eq!(ta + tb, tb + ta);
    }

    #[test]
    fn scalar_scaling_is_linear(e in -1e5f64..1e5, k in -100.0f64..100.0) {
        let energy = Energy::from_joules(e);
        prop_assert!(approx_eq((energy * k).joules(), e * k, 1e-9, 1e-12));
        prop_assert_eq!(energy * k, k * energy);
        if k != 0.0 {
            prop_assert!(approx_eq((energy * k / k).joules(), e, 1e-9, 1e-10));
        }
    }

    #[test]
    fn ratios_are_dimensionless_inverses(a in 1e-3f64..1e6, b in 1e-3f64..1e6) {
        let r = Energy::from_joules(a) / Energy::from_joules(b);
        let r_inv = Energy::from_joules(b) / Energy::from_joules(a);
        prop_assert!(approx_eq(r * r_inv, 1.0, 1e-12, 1e-12));
        prop_assert!(approx_eq(TimeSpan::from_seconds(a) / TimeSpan::from_seconds(b), a / b, 1e-12, 1e-12));
        prop_assert!(approx_eq(Power::from_watts(a) / Power::from_watts(b), a / b, 1e-12, 1e-12));
    }

    #[test]
    fn ordering_matches_underlying_values(a in -1e6f64..1e6, b in -1e6f64..1e6) {
        prop_assert_eq!(
            Energy::from_joules(a) < Energy::from_joules(b),
            a < b
        );
        prop_assert_eq!(
            Energy::from_joules(a).min(Energy::from_joules(b)).joules(),
            a.min(b)
        );
        prop_assert_eq!(
            Energy::from_joules(a).max(Energy::from_joules(b)).joules(),
            a.max(b)
        );
    }

    #[test]
    fn sums_match_scalar_sums(values in proptest::collection::vec(-1e4f64..1e4, 0..50)) {
        let total: Energy = values.iter().map(|&j| Energy::from_joules(j)).sum();
        let scalar: f64 = values.iter().sum();
        prop_assert!(approx_eq(total.joules(), scalar, 1e-8, 1e-12));
    }
}
