//! The `--topology` spec-string grammar, shared by every `ftsim`
//! subcommand (one parser, one set of error messages).
//!
//! A spec is `family:key=value,key=value,…`:
//!
//! * `universal:n=256,w=64` — the paper's universal fat-tree (`w`
//!   defaults to `⌈n^(2/3)⌉`);
//! * `degree:n=256,w=64,d=4` — the §VI degree-`d` relaxation;
//! * `constant:n=64,c=3` — constant capacity `c` per channel;
//! * `doubling:n=64` — full bisection, `cap(k) = n/2^k`;
//! * `perlevel:n=8,caps=7/5/2/1` — explicit per-level capacities;
//! * `kary:k=8,over=1` — k-ary pod data-center tree (`over` ≥ 1
//!   oversubscribes the upper stages, default 1);
//! * `twolayer:r=48,p=24,n=1152` — two-layer tree from radix-`r`
//!   switches (`p` defaults to `r/2`, `n` to the largest design `r·p`).
//!
//! Errors are values, not panics: the CLI prints them and exits 2.

use crate::model::Topology;
use ft_core::ids::{ilog2_ceil, is_pow2};
use ft_core::{CapacityProfile, FatTree};

/// A malformed `--topology` spec, with a message naming the offending part.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecError(pub String);

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad --topology spec: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

fn err<T>(msg: impl Into<String>) -> Result<T, SpecError> {
    Err(SpecError(msg.into()))
}

struct Params<'a> {
    pairs: Vec<(&'a str, &'a str)>,
    taken: Vec<bool>,
}

impl<'a> Params<'a> {
    fn parse(s: &'a str) -> Result<Self, SpecError> {
        let mut pairs = Vec::new();
        for part in s.split(',').filter(|p| !p.is_empty()) {
            match part.split_once('=') {
                Some((k, v)) if !k.is_empty() && !v.is_empty() => pairs.push((k, v)),
                _ => return err(format!("expected key=value, got `{part}`")),
            }
        }
        let taken = vec![false; pairs.len()];
        Ok(Params { pairs, taken })
    }

    fn take(&mut self, key: &str) -> Option<&'a str> {
        let i = self.pairs.iter().position(|&(k, _)| k == key)?;
        self.taken[i] = true;
        Some(self.pairs[i].1)
    }

    fn u64(&mut self, key: &str) -> Result<Option<u64>, SpecError> {
        match self.take(key) {
            None => Ok(None),
            Some(v) => match v.parse::<u64>() {
                Ok(x) => Ok(Some(x)),
                Err(_) => err(format!("`{key}` must be an integer, got `{v}`")),
            },
        }
    }

    fn require_u64(&mut self, key: &str, family: &str) -> Result<u64, SpecError> {
        match self.u64(key)? {
            Some(x) => Ok(x),
            None => err(format!("`{family}` needs `{key}=<int>`")),
        }
    }

    fn finish(self) -> Result<(), SpecError> {
        match self.pairs.iter().zip(&self.taken).find(|&(_, &t)| !t) {
            Some(((k, _), _)) => err(format!("unknown key `{k}`")),
            None => Ok(()),
        }
    }
}

fn pow2_n(n: u64) -> Result<u32, SpecError> {
    let max = FatTree::MAX_HEIGHT;
    if !(2..=(1u64 << max)).contains(&n) || !is_pow2(n) {
        return err(format!(
            "`n` must be a power of two in [2, 2^{max}], got {n}"
        ));
    }
    Ok(n as u32)
}

/// Parse a `--topology` spec string (see the module docs for the grammar).
pub fn parse_spec(spec: &str) -> Result<Topology, SpecError> {
    let (family, rest) = spec.split_once(':').unwrap_or((spec, ""));
    let mut p = Params::parse(rest)?;
    let topo = match family {
        "universal" => {
            let n = pow2_n(p.require_u64("n", "universal")?)?;
            let w = match p.u64("w")? {
                Some(w) if w >= 1 => w,
                Some(w) => return err(format!("`w` must be >= 1, got {w}")),
                None => ((n as f64).powf(2.0 / 3.0).ceil() as u64).max(1),
            };
            Topology::binary(n, CapacityProfile::Universal { root_capacity: w })
        }
        "degree" => {
            let n = pow2_n(p.require_u64("n", "degree")?)?;
            let w = p.require_u64("w", "degree")?;
            let d = p.require_u64("d", "degree")?;
            if w < 1 || d < 1 {
                return err("`w` and `d` must be >= 1");
            }
            Topology::binary(
                n,
                CapacityProfile::UniversalWithDegree {
                    root_capacity: w,
                    degree: d,
                },
            )
        }
        "constant" => {
            let n = pow2_n(p.require_u64("n", "constant")?)?;
            let c = p.require_u64("c", "constant")?;
            if c < 1 {
                return err("`c` must be >= 1");
            }
            Topology::binary(n, CapacityProfile::Constant(c))
        }
        "doubling" => {
            let n = pow2_n(p.require_u64("n", "doubling")?)?;
            Topology::binary(n, CapacityProfile::FullDoubling)
        }
        "perlevel" => {
            let n = pow2_n(p.require_u64("n", "perlevel")?)?;
            let raw = match p.take("caps") {
                Some(r) => r,
                None => return err("`perlevel` needs `caps=<c0/c1/…>`"),
            };
            let mut caps = Vec::new();
            for part in raw.split('/') {
                match part.parse::<u64>() {
                    Ok(c) if c >= 1 => caps.push(c),
                    _ => {
                        return err(format!(
                            "`caps` entries must be integers >= 1, got `{part}`"
                        ))
                    }
                }
            }
            let levels = ilog2_ceil(n as u64) as usize + 1;
            if caps.len() != levels {
                return err(format!(
                    "`caps` needs lg n + 1 = {levels} entries, got {}",
                    caps.len()
                ));
            }
            if caps.windows(2).any(|w| w[0] < w[1]) {
                return err("`caps` must be non-increasing from root to leaves");
            }
            Topology::binary(n, CapacityProfile::PerLevel(caps))
        }
        "kary" => {
            let k = p.require_u64("k", "kary")?;
            if k < 4 || k % 2 != 0 || k > 256 {
                return err(format!("`k` must be even, in [4, 256], got {k}"));
            }
            let over = p.u64("over")?.unwrap_or(1);
            if over < 1 {
                return err("`over` must be >= 1");
            }
            Topology::kary_pods(k as u32, over)
        }
        "twolayer" => {
            let r = p.require_u64("r", "twolayer")?;
            if !(2..=4096).contains(&r) {
                return err(format!("`r` must be in [2, 4096], got {r}"));
            }
            let pp = p.u64("p")?.unwrap_or((r / 2).max(1));
            if pp < 1 || pp >= r {
                return err(format!("`p` must satisfy 1 <= p < r, got p={pp}, r={r}"));
            }
            let n = p.u64("n")?.unwrap_or(r * pp);
            if n < 2 {
                return err("`n` must be >= 2");
            }
            let m = n.div_ceil(pp);
            if m < 2 || m > r {
                return err(format!(
                    "two layers of radix-{r} switches with p={pp} need \
                     2 <= ceil(n/p) <= r leaf switches, got {m}"
                ));
            }
            Topology::two_layer(r as u32, pp as u32, n)
        }
        other => {
            return err(format!(
                "unknown family `{other}` (expected universal, degree, constant, \
                 doubling, perlevel, kary, or twolayer)"
            ))
        }
    };
    p.finish()?;
    Ok(topo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Family;

    #[test]
    fn canonical_specs_roundtrip() {
        for s in ["universal:n=64,w=16", "kary:k=8,over=1", "kary:k=8,over=4"] {
            let t = parse_spec(s).unwrap();
            assert_eq!(t.spec(), s, "canonical form of `{s}`");
            assert_eq!(parse_spec(t.spec()).unwrap().spec(), t.spec());
        }
        // twolayer normalizes n up to m·p.
        let t = parse_spec("twolayer:r=8,p=4,n=30").unwrap();
        assert_eq!(t.spec(), "twolayer:r=8,p=4,n=32");
    }

    #[test]
    fn defaults() {
        let t = parse_spec("universal:n=64").unwrap();
        assert_eq!(t.cap_up(0), 16); // w defaults to n^(2/3)
        let t = parse_spec("kary:k=4").unwrap();
        assert_eq!(t.family(), Family::Kary);
        let t = parse_spec("twolayer:r=8").unwrap();
        assert_eq!(t.arities(), &[8, 4]); // p = r/2, n = r·p
    }

    #[test]
    fn every_family_parses() {
        for s in [
            "universal:n=256,w=64",
            "degree:n=64,w=32,d=2",
            "constant:n=64,c=3",
            "doubling:n=64",
            "perlevel:n=8,caps=7/5/2/1",
            "kary:k=16,over=2",
            "twolayer:r=48,p=24,n=1000",
        ] {
            assert!(parse_spec(s).is_ok(), "`{s}` should parse");
        }
    }

    #[test]
    fn rejects_bad_specs_with_messages() {
        for (s, needle) in [
            ("clos:k=8", "unknown family"),
            ("kary", "needs `k=<int>`"),
            ("kary:k=7", "even"),
            ("kary:k=8,over=0", "`over` must be >= 1"),
            ("kary:k=8,foo=1", "unknown key `foo`"),
            ("universal:n=63", "power of two"),
            ("universal:n=33554432", "[2, 2^24]"),
            ("universal:n=64,w=banana", "must be an integer"),
            ("universal:n=64,w", "expected key=value"),
            ("perlevel:n=8,caps=7/5/2", "lg n + 1"),
            ("perlevel:n=8,caps=7/2/5/1", "non-increasing"),
            ("perlevel:n=8,caps=7/5/0/1", ">= 1"),
            ("twolayer:r=8,p=9", "1 <= p < r"),
            ("twolayer:r=8,p=4,n=1000", "leaf switches"),
        ] {
            match parse_spec(s) {
                Err(e) => assert!(
                    e.to_string().contains(needle),
                    "`{s}` error `{e}` should mention `{needle}`"
                ),
                Ok(_) => panic!("`{s}` should be rejected"),
            }
        }
    }
}
