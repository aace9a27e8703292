//! # exaclim-climsim
//!
//! A synthetic stand-in for the paper's climate dataset.
//!
//! The original work trains on 63 K snapshots of 0.25° CAM5 output
//! (1152×768 grid, 16 variables, 3.5 TB of HDF5) labeled by the TECA
//! toolkit's heuristics: tropical cyclones (TCs) from pressure-minimum +
//! warm-core + wind criteria, atmospheric rivers (ARs) from an integrated
//! water vapor floodfill. None of that data is redistributable here, so
//! this crate builds the closest synthetic equivalent:
//!
//! * [`fields`] — physically-motivated background fields for all 16 CAM5
//!   variables (latitude structure + smooth multi-scale noise) with
//!   injected **TC vortices** (low-pressure core, tangential wind,
//!   moisture/precipitation ring, warm core aloft) and **AR filaments**
//!   (long, narrow moisture streams from the tropics poleward).
//! * [`label`] — a TECA-like heuristic labeler that *rediscovers* the
//!   events from the fields (pressure minima + wind threshold for TCs,
//!   TMQ threshold + floodfill + elongation test for ARs), so the training
//!   labels carry the same character — and the same imperfections — as the
//!   paper's heuristic ground truth.
//! * [`cdf5`] — a chunked binary container ("CDF5") standing in for the
//!   HDF5 sample files, so the staging and input-pipeline subsystems
//!   exercise real file I/O.
//! * [`dataset`] — deterministic generation of train/test/validation
//!   splits with the paper's 80/10/10 ratio and the ≈98.2/1.7/0.1 %
//!   BG/AR/TC class mix.

pub mod cdf5;
pub mod dataset;
pub mod fields;
pub mod label;
pub mod sequence;
pub mod storms;

pub use cdf5::{Cdf5Reader, Cdf5Writer};
pub use sequence::SequenceGenerator;
pub use storms::{analyze_storms, summarize, Storm, StormSummary};
pub use dataset::{ClimateDataset, DatasetConfig, DatasetCursor, Split};
pub use fields::{ClimateSample, FieldGenerator, GeneratorConfig};
pub use label::{heuristic_labels, LabelerConfig};

/// Class ids, matching the paper's three classes.
pub mod classes {
    /// Background.
    pub const BG: u8 = 0;
    /// Tropical cyclone.
    pub const TC: u8 = 1;
    /// Atmospheric river.
    pub const AR: u8 = 2;
}

/// The 16 CAM5 variables of the full Summit runs (§V-B3: "water vapor,
/// wind, precipitation, temperature, pressure, etc.").
const CHANNEL_NAMES: [&str; 16] = [
    "TMQ",    // integrated water vapor (the Fig 7 backdrop)
    "U850",   // zonal wind at 850 hPa
    "V850",   // meridional wind at 850 hPa
    "UBOT",   // lowest-level zonal wind
    "VBOT",   // lowest-level meridional wind
    "QREFHT", // reference-height humidity
    "PS",     // surface pressure
    "PSL",    // sea-level pressure
    "T200",   // temperature at 200 hPa
    "T500",   // temperature at 500 hPa
    "PRECT",  // total precipitation rate
    "TS",     // surface temperature
    "TREFHT", // reference-height temperature
    "Z100",   // geopotential at 100 hPa
    "Z200",   // geopotential at 200 hPa
    "ZBOT",   // lowest-level geopotential
];

/// Channel index by name.
pub fn channel_index(name: &str) -> Option<usize> {
    CHANNEL_NAMES.iter().position(|&c| c == name)
}

/// The 4-channel subset used in the early Piz Daint experiments (§V-B3:
/// "4 channels that were thought to be the most important").
pub const DAINT_CHANNELS: [&str; 4] = ["TMQ", "U850", "V850", "PSL"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_lookup() {
        assert_eq!(channel_index("TMQ"), Some(0));
        assert_eq!(channel_index("PSL"), Some(7));
        assert_eq!(channel_index("XYZ"), None);
        assert_eq!(CHANNEL_NAMES.len(), 16);
    }

    #[test]
    fn daint_subset_is_a_subset() {
        for name in DAINT_CHANNELS {
            assert!(channel_index(name).is_some());
        }
    }
}
