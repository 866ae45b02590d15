//! Operating-region analysis.
//!
//! Fig. 5 of the paper divides the budget axis into regions by the
//! *structure* of the optimal policy: in Region 1 even the cheapest design
//! point cannot stay on all period (the optimum runs a single
//! best-accuracy-per-joule point and sleeps the rest); in Region 2 the
//! optimum mixes two points to fill the whole period; beyond the
//! saturation budget the optimum collapses to the single best-weight
//! point. This module recovers those regions automatically from the
//! solver, for any point set and `alpha`.

use reap_units::Energy;

use crate::{ReapError, ReapProblem};

/// One budget interval over which the optimal policy uses a fixed set of
/// operating points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Region {
    /// Ids of the points active anywhere in this region, ascending.
    pub active_ids: Vec<u8>,
    /// `true` when the device is active for the whole period throughout
    /// this region (no off time).
    pub fully_active: bool,
}

/// A partition of `[min_budget, saturation_budget]` into maximal intervals
/// with a constant active-point set.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionMap {
    /// Region boundaries: `bounds[k]..bounds[k+1]` hosts `regions[k]`.
    pub bounds: Vec<Energy>,
    /// The regions, in ascending budget order.
    pub regions: Vec<Region>,
}

impl std::fmt::Display for RegionMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (k, region) in self.regions.iter().enumerate() {
            let ids: Vec<String> = region
                .active_ids
                .iter()
                .map(|id| format!("DP{id}"))
                .collect();
            writeln!(
                f,
                "{:.3} .. {:.3} J: {} ({})",
                self.bounds[k].joules(),
                self.bounds[k + 1].joules(),
                if ids.is_empty() {
                    "off".to_string()
                } else {
                    ids.join("+")
                },
                if region.fully_active {
                    "fully active"
                } else {
                    "duty-cycled"
                }
            )?;
        }
        Ok(())
    }
}

/// Scans the budget axis at `resolution` steps and merges consecutive
/// budgets whose optimal schedules activate the same point set.
///
/// The scan solves through one precomputed frontier
/// ([`ReapProblem::solve_many`]) instead of `resolution` independent LP
/// solves, so high resolutions are cheap.
///
/// # Errors
///
/// * [`ReapError::InvalidParameter`] when `resolution < 2`.
/// * Propagates solver errors.
pub fn detect_regions(problem: &ReapProblem, resolution: usize) -> Result<RegionMap, ReapError> {
    if resolution < 2 {
        return Err(ReapError::InvalidParameter(
            "region detection needs at least 2 samples".into(),
        ));
    }
    let lo = problem.min_budget().joules();
    // Overshoot saturation slightly so the final (saturated) region has
    // nonzero width instead of degenerating to a point at the boundary.
    let hi = problem.saturation_budget().joules() * 1.02;
    let step = (hi - lo) / (resolution - 1) as f64;
    let budgets: Vec<Energy> = (0..resolution)
        .map(|k| Energy::from_joules(lo + step * k as f64))
        .collect();
    let schedules = problem.solve_many(&budgets)?;

    let mut bounds = vec![problem.min_budget()];
    let mut regions: Vec<Region> = Vec::new();
    let mut current: Option<(Vec<u8>, bool)> = None;

    for (budget, schedule) in budgets.into_iter().zip(schedules) {
        let ids: Vec<u8> = schedule.shares().iter().map(|s| s.id).collect();
        let fully_active = schedule.active_fraction() > 1.0 - 1e-6;
        match &mut current {
            Some((cur_ids, cur_full)) if *cur_ids == ids && *cur_full == fully_active => {}
            Some((cur_ids, cur_full)) => {
                regions.push(Region {
                    active_ids: cur_ids.clone(),
                    fully_active: *cur_full,
                });
                bounds.push(budget);
                *cur_ids = ids;
                *cur_full = fully_active;
            }
            None => current = Some((ids, fully_active)),
        }
    }
    if let Some((ids, full)) = current {
        regions.push(Region {
            active_ids: ids,
            fully_active: full,
        });
        bounds.push(Energy::from_joules(hi));
    }
    Ok(RegionMap { bounds, regions })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OperatingPoint;
    use reap_units::Power;

    impl RegionMap {
        /// The region containing `budget`, or `None` outside the analyzed
        /// range (budgets beyond saturation belong to the last region).
        fn region_at(&self, budget: Energy) -> Option<&Region> {
            if budget < self.bounds[0] {
                return None;
            }
            for (k, region) in self.regions.iter().enumerate() {
                if budget <= self.bounds[k + 1] {
                    return Some(region);
                }
            }
            self.regions.last()
        }
    }

    fn paper_problem(alpha: f64) -> ReapProblem {
        let specs = [
            (1u8, 0.94, 2.76),
            (2, 0.93, 2.30),
            (3, 0.92, 1.82),
            (4, 0.90, 1.64),
            (5, 0.76, 1.20),
        ];
        ReapProblem::builder()
            .alpha(alpha)
            .points(
                specs
                    .iter()
                    .map(|&(id, a, mw)| {
                        OperatingPoint::new(id, format!("DP{id}"), a, Power::from_milliwatts(mw))
                            .unwrap()
                    })
                    .collect(),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn rejects_tiny_resolution() {
        assert!(detect_regions(&paper_problem(1.0), 1).is_err());
    }

    #[test]
    fn paper_regions_at_alpha_one() {
        let p = paper_problem(1.0);
        let map = detect_regions(&p, 400).unwrap();
        // Region 1: only DP5 runs, device sleeps part of the period.
        let region1 = map.region_at(Energy::from_joules(3.0)).unwrap();
        assert_eq!(region1.active_ids, vec![5]);
        assert!(!region1.fully_active);
        // Region 2: two-point mixes, fully active.
        let region2 = map.region_at(Energy::from_joules(5.0)).unwrap();
        assert_eq!(region2.active_ids, vec![4, 5]);
        assert!(region2.fully_active);
        // Near saturation: DP1 alone.
        let region3 = map.region_at(Energy::from_joules(9.93)).unwrap();
        assert!(region3.active_ids.contains(&1));
        assert!(region3.fully_active);
        // The DP5 saturation boundary sits near 4.3 J (the paper's knee).
        let knee = map.bounds.iter().find(|b| (b.joules() - 4.32).abs() < 0.1);
        assert!(knee.is_some(), "no boundary near 4.32 J: {:?}", map.bounds);
    }

    #[test]
    fn regions_tile_the_budget_axis() {
        let p = paper_problem(2.0);
        let map = detect_regions(&p, 200).unwrap();
        assert_eq!(map.bounds.len(), map.regions.len() + 1);
        for w in map.bounds.windows(2) {
            assert!(w[0] < w[1], "bounds not increasing");
        }
        assert!((map.bounds[0].joules() - p.min_budget().joules()).abs() < 1e-12);
        assert!(
            (map.bounds.last().unwrap().joules() - p.saturation_budget().joules() * 1.02).abs()
                < 1e-9
        );
        // Below the floor there is no region.
        assert!(map.region_at(Energy::from_joules(0.0)).is_none());
        // Beyond saturation the last region applies.
        let last = map.region_at(Energy::from_joules(100.0)).unwrap();
        assert_eq!(last, map.regions.last().unwrap());
    }

    #[test]
    fn display_lists_regions() {
        let map = detect_regions(&paper_problem(1.0), 200).unwrap();
        let text = map.to_string();
        assert!(text.contains("DP5"));
        assert!(text.contains("fully active"));
        assert!(text.contains("duty-cycled"));
        assert_eq!(text.lines().count(), map.regions.len());
    }

    #[test]
    fn single_point_problem_has_three_regions() {
        // One point: all-off exactly at the floor, duty-cycled (not fully
        // active), then saturated.
        let p = ReapProblem::builder()
            .point(OperatingPoint::new(1, "only", 0.9, Power::from_milliwatts(2.0)).unwrap())
            .build()
            .unwrap();
        let map = detect_regions(&p, 100).unwrap();
        assert_eq!(map.regions.len(), 3, "{map:#?}");
        assert!(map.regions[0].active_ids.is_empty()); // all-off at the floor
        assert_eq!(map.regions[1].active_ids, vec![1]);
        assert!(!map.regions[1].fully_active);
        assert!(map.regions[2].fully_active);
    }
}
