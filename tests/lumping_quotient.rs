//! The quotient builder against the one it replaced: for every partition
//! the lumping analysis proves on a corpus of models, at every
//! observation level, [`transform::quotient`] and
//! [`transform::quotient_reward_free`] must build a model equal (`==`)
//! to the reference below, with the same [`mrmc::model_hash`], and a
//! certificate must carry exactly that model.
//!
//! The reference is the builder as it was before labels were lumped as
//! whole sets: block labels through [`Labeling::common_to`] and
//! [`CtmcBuilder::label`] one proposition at a time, and the reward-free
//! quotient through a reward-free copy of the chain.
//!
//! [`Labeling::common_to`]: mrmc_ctmc::Labeling::common_to

use mrmc::lumping;
use mrmc_ctmc::CtmcBuilder;
use mrmc_models::cluster::{cluster, ClusterConfig};
use mrmc_models::random::{random_mrm, RandomMrmConfig};
use mrmc_models::{tmr, wavelan, TmrConfig};
use mrmc_mrm::transform;
use mrmc_mrm::{ImpulseRewards, Mrm, Partition, StateRewards};

fn reference_quotient(mrm: &Mrm, partition: &Partition) -> Mrm {
    let k = partition.num_blocks();
    let mut b = CtmcBuilder::new(k);
    let mut sums = vec![0.0_f64; k];
    let mut touched: Vec<usize> = Vec::new();
    for block in 0..k {
        let rep = partition.representative(block);
        for (t, r) in mrm.ctmc().rates().row(rep) {
            let c = partition.block_of(t);
            if c == block {
                continue;
            }
            if sums[c] == 0.0 {
                touched.push(c);
            }
            sums[c] += r;
        }
        touched.sort_unstable();
        for &c in &touched {
            b.transition(block, c, sums[c]);
            sums[c] = 0.0;
        }
        touched.clear();
    }
    for (block, members) in partition.blocks().iter().enumerate() {
        for ap in mrm.labeling().common_to(members) {
            b.label(block, ap);
        }
    }
    let mut ctmc = b.build().unwrap();
    for ap in mrm.labeling().declared() {
        ctmc.labeling_mut().declare(ap);
    }
    let rho = StateRewards::new(
        (0..k)
            .map(|block| mrm.state_reward(partition.representative(block)))
            .collect(),
    )
    .unwrap();
    let mut iota = ImpulseRewards::new();
    for (from, to, v) in mrm.impulse_rewards().iter() {
        let fb = partition.block_of(from);
        if from == partition.representative(fb) && partition.block_of(to) != fb {
            iota.set(fb, partition.block_of(to), v).unwrap();
        }
    }
    Mrm::new(ctmc, rho, iota).unwrap()
}

/// Models with the proposition sets their formulas are built over.
fn corpus() -> Vec<(String, Mrm, Vec<Vec<String>>)> {
    let singles = |m: &Mrm| -> Vec<Vec<String>> {
        let mut sets = vec![Vec::new()];
        for ap in m.labeling().declared() {
            if mrmc_csrl::parse(ap).is_ok() {
                sets.push(vec![ap.to_owned()]);
            }
        }
        sets
    };
    let aps = |list: &[&str]| -> Vec<String> { list.iter().map(|&a| a.to_owned()).collect() };
    let mut corpus = Vec::new();
    let m = tmr(&TmrConfig::classic());
    corpus.push(("tmr".to_owned(), m.clone(), singles(&m)));
    let m = wavelan();
    corpus.push(("wavelan".to_owned(), m.clone(), singles(&m)));
    for n in [4, 8, 16] {
        corpus.push((
            format!("cluster{n}"),
            cluster(&ClusterConfig::new(n)),
            vec![
                Vec::new(),
                aps(&["premium"]),
                aps(&["down"]),
                aps(&["minimum", "premium"]),
                // The cluster-analysis benchmark's unbounded untils.
                aps(&["backbone_up", "down"]),
                aps(&["backbone_up", "premium"]),
                aps(&["backbone_up", "minimum"]),
                aps(&["backbone_up", "down", "premium"]),
            ],
        ));
    }
    for seed in 0..8 {
        let config = RandomMrmConfig {
            states: 20 + 10 * seed as usize,
            max_rate: 1.0,
            ..RandomMrmConfig::default()
        };
        corpus.push((
            format!("random{seed}"),
            random_mrm(seed, &config),
            vec![Vec::new(), aps(&["goal"])],
        ));
    }
    corpus
}

#[test]
fn quotients_equal_the_reference_builder() {
    let mut reductions = 0;
    for (name, m, sets) in corpus() {
        let blind = Mrm::without_rewards(m.ctmc().clone());
        for set in sets {
            let phi = if set.is_empty() {
                "TT".to_owned()
            } else {
                set.join(" && ")
            };
            for text in [
                phi.clone(),
                format!("S(> 0.5) ({phi})"),
                format!("P(> 0.5) [TT U[0,1][0,1] ({phi})]"),
            ] {
                let formula = mrmc_csrl::parse(&text).unwrap();
                let analysis = lumping::analyze(&m, &formula);
                let p = &analysis.partition;
                let full = transform::quotient(&m, p).unwrap();
                let free = transform::quotient_reward_free(&m, p).unwrap();
                for (got, expected) in [
                    (&full, reference_quotient(&m, p)),
                    (&free, reference_quotient(&blind, p)),
                ] {
                    assert!(*got == expected, "{name} `{text}`: quotient differs");
                    assert_eq!(
                        mrmc::model_hash(got),
                        mrmc::model_hash(&expected),
                        "{name} `{text}`: quotient hash differs"
                    );
                }
                if let Some(cert) = &analysis.certificate {
                    reductions += 1;
                    let expected = if cert.observes_rewards { &full } else { &free };
                    assert!(cert.quotient == *expected, "{name} `{text}`");
                    assert_eq!(
                        lumping::certify(&m, &formula).unwrap().quotient,
                        cert.quotient
                    );
                } else {
                    assert!(lumping::certify(&m, &formula).is_none(), "{name} `{text}`");
                }
            }
        }
    }
    assert!(reductions > 20, "only {reductions} formulas reduced");
}
