//! Minimal dependency-free CLI argument parsing shared by all
//! experiment binaries.

use hlsh_families::PaperDataset;

/// Arguments shared by every experiment binary.
#[derive(Clone, Debug, PartialEq)]
pub struct CommonArgs {
    /// Fraction of each data set's paper-scale `n` to generate.
    pub scale: f64,
    /// Query-set size (paper: 100).
    pub queries: usize,
    /// Repeated runs to average (paper: 5).
    pub runs: usize,
    /// Master seed.
    pub seed: u64,
    /// Restrict to one data set (`--dataset`), if given.
    pub dataset: Option<PaperDataset>,
}

impl Default for CommonArgs {
    fn default() -> Self {
        Self { scale: 0.05, queries: 100, runs: 3, seed: 42, dataset: None }
    }
}

impl CommonArgs {
    /// Parses `std::env::args`-style strings. Unknown flags abort with
    /// a usage message; `--full` sets `scale = 1.0` (paper scale).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut out = Self::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--scale" => {
                    let v = it.next().ok_or("--scale needs a value")?;
                    out.scale = v.parse().map_err(|_| format!("bad --scale {v:?}"))?;
                    if out.scale <= 0.0 || out.scale > 1.0 {
                        return Err(format!("--scale must be in (0, 1], got {}", out.scale));
                    }
                }
                "--full" => out.scale = 1.0,
                "--queries" => {
                    let v = it.next().ok_or("--queries needs a value")?;
                    out.queries = v.parse().map_err(|_| format!("bad --queries {v:?}"))?;
                    if out.queries == 0 {
                        return Err("--queries must be positive".into());
                    }
                }
                "--runs" => {
                    let v = it.next().ok_or("--runs needs a value")?;
                    out.runs = v.parse().map_err(|_| format!("bad --runs {v:?}"))?;
                    if out.runs == 0 {
                        return Err("--runs must be positive".into());
                    }
                }
                "--seed" => {
                    let v = it.next().ok_or("--seed needs a value")?;
                    out.seed = v.parse().map_err(|_| format!("bad --seed {v:?}"))?;
                }
                "--dataset" => {
                    let v = it.next().ok_or("--dataset needs a value")?;
                    out.dataset = Some(parse_dataset(&v)?);
                }
                "--help" | "-h" => {
                    return Err(usage());
                }
                other => return Err(format!("unknown flag {other:?}\n{}", usage())),
            }
        }
        Ok(out)
    }

    /// Parses the real process arguments, exiting with a message on
    /// error.
    pub fn from_env() -> Self {
        match Self::parse(std::env::args().skip(1)) {
            Ok(a) => a,
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        }
    }

    /// The data sets to run: the selected one, or all four.
    pub fn datasets(&self) -> Vec<PaperDataset> {
        match self.dataset {
            Some(d) => vec![d],
            None => PaperDataset::ALL.to_vec(),
        }
    }

    /// Scaled `n` for a data set.
    pub fn n_for(&self, d: PaperDataset) -> usize {
        ((d.paper_n() as f64 * self.scale) as usize).max(self.queries * 2)
    }
}

fn parse_dataset(s: &str) -> Result<PaperDataset, String> {
    match s.to_ascii_lowercase().as_str() {
        "corel" => Ok(PaperDataset::Corel),
        "covertype" => Ok(PaperDataset::CoverType),
        "webspam" => Ok(PaperDataset::Webspam),
        "mnist" => Ok(PaperDataset::Mnist),
        other => Err(format!("unknown dataset {other:?} (expected corel|covertype|webspam|mnist)")),
    }
}

fn usage() -> String {
    "usage: <bin> [--scale F | --full] [--queries N] [--runs N] [--seed N] \
     [--dataset corel|covertype|webspam|mnist]"
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(v: &[&str]) -> Result<CommonArgs, String> {
        CommonArgs::parse(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let a = parse(&[]).unwrap();
        assert_eq!(a, CommonArgs::default());
        assert_eq!(a.datasets().len(), 4);
    }

    #[test]
    fn full_flag_and_scale() {
        assert_eq!(parse(&["--full"]).unwrap().scale, 1.0);
        assert_eq!(parse(&["--scale", "0.2"]).unwrap().scale, 0.2);
        assert!(parse(&["--scale", "0"]).is_err());
        assert!(parse(&["--scale", "2"]).is_err());
        assert!(parse(&["--scale"]).is_err());
    }

    #[test]
    fn dataset_selection() {
        let a = parse(&["--dataset", "webspam"]).unwrap();
        assert_eq!(a.dataset, Some(PaperDataset::Webspam));
        assert_eq!(a.datasets(), vec![PaperDataset::Webspam]);
        assert!(parse(&["--dataset", "imagenet"]).is_err());
        assert!(parse(&["--dataset", "MNIST"]).unwrap().dataset == Some(PaperDataset::Mnist));
    }

    #[test]
    fn numeric_flags() {
        let a = parse(&["--queries", "10", "--runs", "2", "--seed", "7"]).unwrap();
        assert_eq!((a.queries, a.runs, a.seed), (10, 2, 7));
        assert!(parse(&["--runs", "0"]).is_err());
        assert!(parse(&["--queries", "0"]).is_err());
        assert!(parse(&["--seed", "x"]).is_err());
    }

    #[test]
    fn unknown_flag_rejected() {
        assert!(parse(&["--bogus"]).is_err());
    }

    #[test]
    fn scaled_n_has_floor() {
        let a = parse(&["--scale", "0.001", "--queries", "100"]).unwrap();
        // 0.001 · 60,000 = 60 < 2·queries → floor kicks in.
        assert_eq!(a.n_for(PaperDataset::Mnist), 200);
        let b = parse(&["--scale", "0.1"]).unwrap();
        assert_eq!(b.n_for(PaperDataset::Webspam), 35_000);
    }
}
