//! Storage profiling for the load planner: how fast is the medium a
//! snapshot sits on?
//!
//! [`StorageProfile::probe`] writes a scratch file next to the snapshot
//! and times two access patterns through plain buffered I/O:
//!
//! * one sequential pass in 256 KiB chunks → bytes/second;
//! * a burst of page-sized reads at pseudo-random offsets → seconds
//!   per small read.
//!
//! The numbers are **effective** figures — the page cache is not (and
//! cannot portably be) bypassed, so a warm medium reads fast. That is
//! the signal the planner wants: right after a snapshot is written the
//! file *is* warm and any mode is cheap; the profile matters on the
//! cold media (network mounts, spinning disks, throttled volumes)
//! where cache hits are rare and the two patterns genuinely diverge.
//!
//! A probe costs a few milliseconds on local disk, so the result is
//! cached as a small JSON sidecar next to the snapshot
//! (`<snapshot>.profile.json`, schema in `docs/SNAPSHOT.md`) and reused
//! by later loads; delete the sidecar to re-probe. All sidecar writes
//! are best-effort — a read-only snapshot directory degrades to
//! probing per process, never to a failed load.

use std::fs::{self, File};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use super::mmap::page_size;

/// Scratch file length: big enough to outlast burst buffering, small
/// enough to probe in milliseconds on local media.
const PROBE_LEN: usize = 4 << 20;
/// Sequential chunk size.
const SEQ_CHUNK: usize = 256 << 10;
/// Number of timed random reads.
const RAND_READS: usize = 64;
/// Bytes per random read.
const RAND_LEN: usize = 4096;

/// An empirical profile of a storage medium, as consumed by the load
/// planner ([`plan_load`](super::plan::plan_load)).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StorageProfile {
    /// Sequential read bandwidth in bytes per second.
    pub seq_bytes_per_sec: f64,
    /// Mean wall time of one 4 KiB read at a random offset, seconds.
    pub rand_read_secs: f64,
    /// Runtime page size of the host that measured the profile.
    pub page_size: u64,
}

impl StorageProfile {
    /// Measures the medium under `dir` by writing and timing a scratch
    /// file there. The file is removed before returning; its name is
    /// unique per call (process id plus a process-wide counter), so
    /// concurrent probes of one directory never touch each other's file.
    pub fn probe(dir: &Path) -> std::io::Result<Self> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let call = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = dir.join(format!(".hlsh-probe-{}-{call}.tmp", std::process::id()));
        let result = Self::probe_at(&path);
        fs::remove_file(&path).ok();
        result
    }

    fn probe_at(path: &Path) -> std::io::Result<Self> {
        // Fill with a cheap LCG pattern so filesystems with transparent
        // compression cannot shortcut the reads.
        let mut chunk = vec![0u8; SEQ_CHUNK];
        let mut state = 0x243F_6A88_85A3_08D3u64;
        {
            let mut out = File::create(path)?;
            let mut written = 0usize;
            while written < PROBE_LEN {
                for b in chunk.iter_mut() {
                    state =
                        state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    *b = (state >> 56) as u8;
                }
                let step = SEQ_CHUNK.min(PROBE_LEN - written);
                out.write_all(&chunk[..step])?;
                written += step;
            }
            out.sync_all()?;
        }

        let mut file = File::open(path)?;

        // Sequential pass.
        let t0 = Instant::now();
        let mut remaining = PROBE_LEN;
        while remaining > 0 {
            let step = SEQ_CHUNK.min(remaining);
            file.read_exact(&mut chunk[..step])?;
            remaining -= step;
        }
        let seq_secs = t0.elapsed().as_secs_f64().max(1e-9);

        // Random page-sized reads at LCG offsets.
        let mut buf = [0u8; RAND_LEN];
        let span = (PROBE_LEN - RAND_LEN) as u64;
        let t0 = Instant::now();
        for _ in 0..RAND_READS {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let offset = (state >> 16) % span;
            file.seek(SeekFrom::Start(offset))?;
            file.read_exact(&mut buf)?;
        }
        let rand_secs = t0.elapsed().as_secs_f64().max(1e-9);

        Ok(Self {
            seq_bytes_per_sec: PROBE_LEN as f64 / seq_secs,
            rand_read_secs: rand_secs / RAND_READS as f64,
            page_size: page_size(),
        })
    }

    /// The profile as one line of flat JSON (the sidecar format).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"seq_bytes_per_sec\":{:.1},\"rand_read_secs\":{:.9},\"page_size\":{}}}\n",
            self.seq_bytes_per_sec, self.rand_read_secs, self.page_size
        )
    }

    /// Parses the sidecar JSON written by [`to_json`](Self::to_json).
    /// Tolerant of whitespace and key order; `None` on anything else
    /// (a stale or corrupt sidecar is simply re-probed).
    pub fn from_json(text: &str) -> Option<Self> {
        let body = text.trim().strip_prefix('{')?.strip_suffix('}')?;
        let (mut seq, mut rand, mut page) = (None, None, None);
        for field in body.split(',') {
            let (key, value) = field.split_once(':')?;
            let key = key.trim().trim_matches('"');
            let value = value.trim();
            match key {
                "seq_bytes_per_sec" => seq = value.parse::<f64>().ok(),
                "rand_read_secs" => rand = value.parse::<f64>().ok(),
                "page_size" => page = value.parse::<u64>().ok(),
                _ => return None,
            }
        }
        let profile = Self { seq_bytes_per_sec: seq?, rand_read_secs: rand?, page_size: page? };
        let sane = profile.seq_bytes_per_sec.is_finite()
            && profile.seq_bytes_per_sec > 0.0
            && profile.rand_read_secs.is_finite()
            && profile.rand_read_secs > 0.0
            && profile.page_size.is_power_of_two();
        sane.then_some(profile)
    }

    /// The sidecar path for a snapshot: `<snapshot>.profile.json`.
    pub fn cache_path(snapshot: &Path) -> PathBuf {
        let mut os = snapshot.as_os_str().to_os_string();
        os.push(".profile.json");
        PathBuf::from(os)
    }

    /// The profile for the medium `snapshot` sits on: the cached
    /// sidecar when present and parseable, else a fresh probe (cached
    /// best-effort). `None` when probing fails too (e.g. an unwritable
    /// directory) — the planner then falls back to its default.
    pub fn load_or_probe(snapshot: &Path) -> Option<Self> {
        let cache = Self::cache_path(snapshot);
        if let Ok(text) = fs::read_to_string(&cache) {
            if let Some(profile) = Self::from_json(&text) {
                return Some(profile);
            }
        }
        let dir = match snapshot.parent() {
            Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
            _ => PathBuf::from("."),
        };
        let profile = Self::probe(&dir).ok()?;
        fs::write(&cache, profile.to_json()).ok();
        Some(profile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trip_and_rejection() {
        let p =
            StorageProfile { seq_bytes_per_sec: 1.25e9, rand_read_secs: 3.5e-5, page_size: 4096 };
        assert_eq!(StorageProfile::from_json(&p.to_json()), Some(p));
        // Key order and whitespace are tolerated.
        let shuffled =
            " { \"page_size\": 16384 , \"rand_read_secs\": 0.001, \"seq_bytes_per_sec\": 5e8 } ";
        let parsed = StorageProfile::from_json(shuffled).expect("shuffled keys parse");
        assert_eq!(parsed.page_size, 16384);

        for bad in [
            "",
            "{}",
            "not json",
            "{\"seq_bytes_per_sec\":1.0}",
            "{\"seq_bytes_per_sec\":-1,\"rand_read_secs\":1e-5,\"page_size\":4096}",
            "{\"seq_bytes_per_sec\":1e9,\"rand_read_secs\":1e-5,\"page_size\":4095}",
            "{\"seq_bytes_per_sec\":1e9,\"rand_read_secs\":1e-5,\"page_size\":4096,\"x\":1}",
        ] {
            assert!(StorageProfile::from_json(bad).is_none(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn probe_measures_positive_rates_and_caches() {
        let dir = std::env::temp_dir().join("hlsh-profile-test");
        fs::create_dir_all(&dir).expect("temp dir");
        let profile = StorageProfile::probe(&dir).expect("probe");
        assert!(profile.seq_bytes_per_sec > 0.0);
        assert!(profile.rand_read_secs > 0.0);
        assert!(profile.page_size >= 4096);

        // load_or_probe writes the sidecar and then reuses it verbatim
        // (the first call returns the full-precision probe; later calls
        // return exactly what the sidecar holds).
        let snapshot = dir.join(format!("probe-cache-{}.hlsh", std::process::id()));
        let first = StorageProfile::load_or_probe(&snapshot).expect("probe or cache");
        let sidecar = StorageProfile::cache_path(&snapshot);
        assert!(sidecar.exists());
        let on_disk = StorageProfile::from_json(&fs::read_to_string(&sidecar).expect("sidecar"))
            .expect("sidecar parses");
        let second = StorageProfile::load_or_probe(&snapshot).expect("cached");
        assert_eq!(second, on_disk, "second load must come from the sidecar");
        assert_eq!(second.page_size, first.page_size);
        fs::remove_file(&sidecar).ok();
    }

    #[test]
    fn concurrent_probes_of_one_directory_all_succeed() {
        // Probes racing in one directory (two `LoadMode::Auto` loads of
        // sibling snapshots) must each measure their own scratch file:
        // a shared name lets one probe truncate or delete another's
        // file mid-measurement.
        let dir = std::env::temp_dir().join("hlsh-profile-concurrent-test");
        fs::create_dir_all(&dir).expect("temp dir");
        let start = std::sync::Barrier::new(4);
        for round in 0..5 {
            std::thread::scope(|s| {
                let probe = || {
                    start.wait();
                    StorageProfile::probe(&dir)
                };
                let probes: Vec<_> = (0..4).map(|_| s.spawn(probe)).collect();
                for (t, handle) in probes.into_iter().enumerate() {
                    let result = handle.join().expect("probe thread");
                    assert!(result.is_ok(), "round {round} thread {t}: {result:?}");
                }
            });
        }
    }
}
