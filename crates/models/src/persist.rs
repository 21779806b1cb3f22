//! Plain-text persistence for trained tree models.
//!
//! The paper's offline artifacts are "constructed only once and can be used
//! for any application" (§5.3) — which implies storing them. This module
//! writes/reads the decision-tree and gradient-boosting models in a small
//! line-oriented text format (no external serialisation crates needed):
//!
//! ```text
//! gbr v1 <n_estimators> <learning_rate> <max_depth> <seed> <base> <n_features>
//! tree <n_nodes>
//! leaf <value>
//! split <feature> <threshold> <left> <right>
//! ...
//! end
//! ```
//!
//! Floats are written in `{:?}` round-trip form, so a save/load cycle is
//! bit-exact.

use std::io::{self, BufRead, Write};

use crate::gbr::GradientBoostedRegressor;
use crate::tree::{DecisionTreeRegressor, PortableNode};

/// Types that can round-trip through the plain-text model format.
pub trait Portable: Sized {
    /// Serialise into `w`.
    fn write_portable(&self, w: &mut dyn Write) -> io::Result<()>;
    /// Deserialise from `r`.
    fn read_portable(r: &mut dyn BufRead) -> io::Result<Self>;
}

fn parse_err(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

fn read_line(r: &mut dyn BufRead) -> io::Result<String> {
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Err(parse_err("unexpected end of model file"));
    }
    Ok(line.trim_end().to_string())
}

impl Portable for DecisionTreeRegressor {
    fn write_portable(&self, w: &mut dyn Write) -> io::Result<()> {
        let nodes = self.portable_nodes();
        writeln!(
            w,
            "tree {} {} {} {}",
            nodes.len(),
            self.max_depth,
            self.min_samples_split,
            self.seed
        )?;
        for n in nodes {
            match n {
                PortableNode::Leaf { value } => writeln!(w, "leaf {value:?}")?,
                PortableNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => writeln!(w, "split {feature} {threshold:?} {left} {right}")?,
            }
        }
        Ok(())
    }

    fn read_portable(r: &mut dyn BufRead) -> io::Result<Self> {
        let header = read_line(r)?;
        let parts: Vec<&str> = header.split_whitespace().collect();
        if parts.len() != 5 || parts[0] != "tree" {
            return Err(parse_err("bad tree header"));
        }
        let n_nodes: usize = parts[1].parse().map_err(|_| parse_err("bad node count"))?;
        let max_depth: usize = parts[2].parse().map_err(|_| parse_err("bad depth"))?;
        let min_samples: usize = parts[3].parse().map_err(|_| parse_err("bad min_samples"))?;
        let seed: u64 = parts[4].parse().map_err(|_| parse_err("bad seed"))?;
        let mut nodes = Vec::new();
        for _ in 0..n_nodes {
            let line = read_line(r)?;
            let p: Vec<&str> = line.split_whitespace().collect();
            match p.first().copied() {
                Some("leaf") if p.len() == 2 => nodes.push(PortableNode::Leaf {
                    value: p[1].parse().map_err(|_| parse_err("bad leaf value"))?,
                }),
                Some("split") if p.len() == 5 => nodes.push(PortableNode::Split {
                    feature: p[1].parse().map_err(|_| parse_err("bad feature"))?,
                    threshold: p[2].parse().map_err(|_| parse_err("bad threshold"))?,
                    left: p[3].parse().map_err(|_| parse_err("bad left"))?,
                    right: p[4].parse().map_err(|_| parse_err("bad right"))?,
                }),
                _ => return Err(parse_err("bad tree node line")),
            }
        }
        DecisionTreeRegressor::from_portable(nodes, max_depth, min_samples, seed)
            .map_err(|e| parse_err(&e))
    }
}

impl Portable for GradientBoostedRegressor {
    fn write_portable(&self, w: &mut dyn Write) -> io::Result<()> {
        let (base, stages, num_features) = self.portable_parts();
        writeln!(
            w,
            "gbr v1 {} {:?} {} {} {:?} {}",
            self.n_estimators, self.learning_rate, self.max_depth, self.seed, base, num_features
        )?;
        writeln!(w, "stages {}", stages.len())?;
        for s in stages {
            s.write_portable(w)?;
        }
        writeln!(w, "end")?;
        Ok(())
    }

    fn read_portable(r: &mut dyn BufRead) -> io::Result<Self> {
        let header = read_line(r)?;
        let p: Vec<&str> = header.split_whitespace().collect();
        if p.len() != 8 || p[0] != "gbr" || p[1] != "v1" {
            return Err(parse_err("bad gbr header"));
        }
        let n_estimators: usize = p[2].parse().map_err(|_| parse_err("bad n_estimators"))?;
        let learning_rate: f64 = p[3].parse().map_err(|_| parse_err("bad learning_rate"))?;
        let max_depth: usize = p[4].parse().map_err(|_| parse_err("bad max_depth"))?;
        let seed: u64 = p[5].parse().map_err(|_| parse_err("bad seed"))?;
        let base: f64 = p[6].parse().map_err(|_| parse_err("bad base"))?;
        let num_features: usize = p[7].parse().map_err(|_| parse_err("bad num_features"))?;
        let stages_line = read_line(r)?;
        let sp: Vec<&str> = stages_line.split_whitespace().collect();
        if sp.len() != 2 || sp[0] != "stages" {
            return Err(parse_err("bad stages line"));
        }
        let n_stages: usize = sp[1].parse().map_err(|_| parse_err("bad stage count"))?;
        let mut stages = Vec::new();
        for _ in 0..n_stages {
            stages.push(DecisionTreeRegressor::read_portable(r)?);
        }
        let endl = read_line(r)?;
        if endl.trim() != "end" {
            return Err(parse_err("missing end marker"));
        }
        Ok(GradientBoostedRegressor::from_portable_parts(
            n_estimators,
            learning_rate,
            max_depth,
            seed,
            base,
            stages,
            num_features,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Regressor;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn trained_gbr() -> (GradientBoostedRegressor, Vec<Vec<f64>>) {
        let mut rng = StdRng::seed_from_u64(1);
        let x: Vec<Vec<f64>> = (0..200)
            .map(|_| vec![rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)])
            .collect();
        let y: Vec<f64> = x.iter().map(|r| (r[0] * 5.0).sin() + r[1]).collect();
        let mut g = GradientBoostedRegressor::new(40, 0.1, 3, 7);
        g.fit(&x, &y);
        (g, x)
    }

    #[test]
    fn gbr_round_trips_bit_exact() {
        let (g, x) = trained_gbr();
        let mut buf = Vec::new();
        g.write_portable(&mut buf).unwrap();
        let back = GradientBoostedRegressor::read_portable(&mut buf.as_slice()).unwrap();
        for row in &x {
            assert_eq!(g.predict_one(row), back.predict_one(row));
        }
    }

    #[test]
    fn tree_round_trips_bit_exact() {
        let (g, x) = trained_gbr();
        let _ = g;
        let mut t = DecisionTreeRegressor::new(6);
        let y: Vec<f64> = x.iter().map(|r| r[0] * 2.0).collect();
        t.fit(&x, &y);
        let mut buf = Vec::new();
        t.write_portable(&mut buf).unwrap();
        let back = DecisionTreeRegressor::read_portable(&mut buf.as_slice()).unwrap();
        for row in &x {
            assert_eq!(t.predict_one(row), back.predict_one(row));
        }
    }

    #[test]
    fn compiled_ensemble_round_trips_bit_exact() {
        // Compile → portable text → recompile must preserve every
        // prediction bit (and the structural fingerprint), so a planner
        // restored from a persisted model replays identically.
        use crate::compiled::CompiledEnsemble;
        let (g, x) = trained_gbr();
        let compiled = CompiledEnsemble::compile(&g);
        let mut buf = Vec::new();
        g.write_portable(&mut buf).unwrap();
        let back = GradientBoostedRegressor::read_portable(&mut buf.as_slice()).unwrap();
        let recompiled = CompiledEnsemble::compile(&back);
        assert_eq!(compiled.fingerprint(), recompiled.fingerprint());
        for row in &x {
            assert_eq!(
                compiled.predict_one(row).to_bits(),
                recompiled.predict_one(row).to_bits()
            );
            assert_eq!(
                recompiled.predict_one(row).to_bits(),
                g.predict_one(row).to_bits()
            );
        }
    }

    #[test]
    fn corrupt_input_rejected() {
        for garbage in ["", "tree x", "gbr v2 1 2 3 4 5 6", "leaf 1.0"] {
            assert!(
                GradientBoostedRegressor::read_portable(&mut garbage.as_bytes()).is_err(),
                "{garbage:?} should be rejected"
            );
        }
    }

    #[test]
    fn split_indices_validated() {
        // A split pointing past the arena must be rejected, not panic later.
        let text = "tree 1 5 2 0\nsplit 0 1.0 7 9\n";
        assert!(DecisionTreeRegressor::read_portable(&mut text.as_bytes()).is_err());
    }
}
