//! Cross-crate integration: the full pipeline from synthetic sensor data
//! to an executed schedule, including a classifier-in-the-loop check that
//! realized recognition accuracy tracks the accuracy the optimizer was
//! promised.

use rand::rngs::StdRng;
use rand::SeedableRng;
use reap::data::{ActivityWindow, Dataset, UserProfile};
use reap::device::characterize;
use reap::har::{train_classifier, DesignPoint, DpConfig, TrainConfig};
use reap::sim::ActivityStream;
use reap::units::Energy;

/// Train a small model, characterize it, optimize with it, and execute
/// the schedule against freshly synthesized sensor data.
#[test]
fn pipeline_from_waveforms_to_schedule() {
    let dataset = Dataset::generate(5, 560, 7);
    let train_config = TrainConfig::fast(7);

    // Train two design points: the best and the cheapest.
    let configs = DpConfig::paper_pareto_5();
    let dp1_trained = train_classifier(&dataset, &configs[0], &train_config).expect("trains");
    let dp5_trained = train_classifier(&dataset, &configs[4], &train_config).expect("trains");

    // Characterize on the device model and build the optimizer's view.
    let dp1 = characterize(
        &DesignPoint::new(1, configs[0].clone(), dp1_trained.test_accuracy).expect("valid"),
    );
    let dp5 = characterize(
        &DesignPoint::new(5, configs[4].clone(), dp5_trained.test_accuracy).expect("valid"),
    );
    assert!(dp1.total_energy() > dp5.total_energy());
    assert!(dp1.point.accuracy > dp5.point.accuracy);

    let problem = reap::core::ReapProblem::builder()
        .points(vec![dp1.operating_point(), dp5.operating_point()])
        .build()
        .expect("valid problem");

    // A mid-range budget must mix or pick one point and stay feasible.
    let budget = Energy::from_joules(5.0);
    let schedule = problem.solve(budget).expect("solvable");
    assert!(schedule.is_feasible(budget, 1e-6));
    assert!(schedule.expected_accuracy() > 0.5);

    // Execute the schedule "for real": classify fresh windows with each
    // allocated design point for its time share and measure accuracy.
    let mut stream = ActivityStream::new(99);
    let profile = UserProfile::generate(3, 7);
    let mut rng = StdRng::seed_from_u64(123);
    let mut correct = 0usize;
    let mut total = 0usize;
    for share in schedule.shares() {
        let windows = (share.seconds / 1.6) as usize;
        // Sample a manageable number of windows proportional to the
        // allocation.
        let sample = (windows / 20).clamp(1, 60);
        let classifier = if share.id == 1 {
            &dp1_trained
        } else {
            &dp5_trained
        };
        for _ in 0..sample {
            let label = stream.next_window();
            let window = ActivityWindow::synthesize(&profile, label, &mut rng);
            if classifier.classify(&window).expect("classifies") == label {
                correct += 1;
            }
            total += 1;
        }
    }
    let realized = correct as f64 / total as f64;
    // The optimizer's promise must not be overoptimistic: realized
    // accuracy must not fall meaningfully below the planned expected
    // accuracy. (It may legitimately exceed it — the measured test
    // accuracy includes label noise and cross-user confusion, while this
    // execution classifies clean windows of an in-cohort user.)
    assert!(
        realized >= schedule.expected_accuracy() - 0.10,
        "realized {realized} fell below expected {}",
        schedule.expected_accuracy()
    );
    assert!(
        realized > 0.5,
        "realized accuracy {realized} implausibly low"
    );
}

/// The trained five-point set yields a valid problem whose solution
/// structure matches the paper's (<= 2 active points, feasible, dominated
/// by no static policy).
#[test]
fn trained_points_preserve_optimizer_invariants() {
    let dataset = Dataset::generate(4, 420, 11);
    let train_config = TrainConfig::fast(11);
    let points: Vec<reap::core::OperatingPoint> = DpConfig::paper_pareto_5()
        .iter()
        .enumerate()
        .map(|(i, config)| {
            let trained = train_classifier(&dataset, config, &train_config).expect("trains");
            characterize(
                &DesignPoint::new(i as u8 + 1, config.clone(), trained.test_accuracy)
                    .expect("valid"),
            )
            .operating_point()
        })
        .collect();
    let problem = reap::core::ReapProblem::builder()
        .points(points)
        .build()
        .expect("valid");
    for j in [0.5, 2.0, 4.0, 6.0, 9.0] {
        let budget = Energy::from_joules(j);
        let reap = problem.solve(budget).expect("solvable");
        assert!(reap.shares().len() <= 2);
        assert!(reap.is_feasible(budget, 1e-6));
        for p in problem.points() {
            let stat = reap::core::static_schedule(&problem, p.id(), budget).expect("solvable");
            assert!(reap.objective(1.0) >= stat.objective(1.0) - 1e-9);
        }
    }
}

/// Harvest -> allocate -> plan -> execute, with the classifier-backed
/// operating points, over a synthetic week.
#[test]
fn week_long_simulation_with_trained_points() {
    use reap::harvest::{HarvestTrace, SolarModel, SolarPanel, WeatherModel};
    use reap::sim::Scenario;

    let trace = HarvestTrace::generate(
        &SolarModel::golden_colorado(),
        &WeatherModel::new(5),
        &SolarPanel::sp3_37_wearable(),
        244,
        7,
    )
    .expect("valid");
    let scenario = Scenario::builder(trace)
        .points(reap::device::paper_table2_operating_points())
        .build()
        .expect("valid");
    let (reap_report, statics) = scenario.run_all().expect("runs");
    assert_eq!(reap_report.hours().len(), 7 * 24);
    assert_eq!(statics.len(), 5);
    for s in &statics {
        assert!(
            reap_report.total_objective(1.0) >= s.total_objective(1.0) - 1e-9,
            "REAP lost to {} over the week",
            s.policy_name()
        );
    }
}
