//! Linear mapping between quantized probability levels and FeFET read
//! currents / write configurations (the right half of Fig. 4).

use serde::{Deserialize, Serialize};

use febim_device::{LevelProgrammer, ProgrammedState};

use crate::errors::{QuantError, Result};

/// Linear map from quantized-level indices to target FeFET read currents.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LevelCurrentMap {
    /// Read current of level 0, in amperes (paper: 0.1 µA).
    pub min_current: f64,
    /// Read current of the highest level, in amperes (paper: 1.0 µA).
    pub max_current: f64,
    /// Number of levels.
    pub levels: usize,
}

impl LevelCurrentMap {
    /// The paper's 0.1 µA – 1.0 µA window with the given number of levels.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidParameter`] for fewer than two levels.
    pub fn febim_default(levels: usize) -> Result<Self> {
        Self::new(0.1e-6, 1.0e-6, levels)
    }

    /// Creates a custom map.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidParameter`] when the window is empty or
    /// fewer than two levels are requested.
    pub fn new(min_current: f64, max_current: f64, levels: usize) -> Result<Self> {
        if !(min_current > 0.0 && max_current > min_current) {
            return Err(QuantError::InvalidParameter {
                name: "min_current/max_current",
                reason: "current window must satisfy 0 < min < max".to_string(),
            });
        }
        if levels < 2 {
            return Err(QuantError::InvalidParameter {
                name: "levels",
                reason: "at least two levels are required".to_string(),
            });
        }
        Ok(Self {
            min_current,
            max_current,
            levels,
        })
    }

    /// Target read current of a level.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::UnknownIndex`] for a non-existent level.
    pub fn current_for_level(&self, level: usize) -> Result<f64> {
        if level >= self.levels {
            return Err(QuantError::UnknownIndex {
                kind: "level",
                index: level,
            });
        }
        let fraction = level as f64 / (self.levels - 1) as f64;
        Ok(self.min_current + fraction * (self.max_current - self.min_current))
    }

    /// Target read currents of a tile-sized block of quantized levels (the
    /// per-tile analogue of mapping the whole level matrix): `None` entries
    /// (erased cells) map to zero current.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::UnknownIndex`] for any level outside the map.
    pub fn block_currents(&self, levels: &[Vec<Option<usize>>]) -> Result<Vec<Vec<f64>>> {
        levels
            .iter()
            .map(|row| {
                row.iter()
                    .map(|level| match level {
                        Some(level) => self.current_for_level(*level),
                        None => Ok(0.0),
                    })
                    .collect()
            })
            .collect()
    }

    /// Builds the corresponding device-level programmer so levels can be
    /// turned into write-pulse configurations.
    ///
    /// # Errors
    ///
    /// Propagates device-parameter validation errors.
    pub fn to_programmer(&self, params: febim_device::FeFetParams) -> Result<LevelProgrammer> {
        Ok(LevelProgrammer::new(
            params,
            self.levels,
            self.min_current,
            self.max_current,
        )?)
    }

    /// Programmed-state descriptors (target current, polarization, pulse
    /// count) for every level, using the calibrated device parameters — the
    /// data behind Fig. 4(b).
    ///
    /// # Errors
    ///
    /// Propagates device-model errors.
    pub fn programmed_states(&self) -> Result<Vec<ProgrammedState>> {
        let programmer = self.to_programmer(febim_device::FeFetParams::febim_calibrated())?;
        Ok(programmer.all_states().to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_currents_map_cell_by_cell_with_erased_cells_at_zero() {
        let map = LevelCurrentMap::febim_default(4).unwrap();
        let block = vec![vec![Some(0), Some(3), None], vec![None, Some(1), Some(2)]];
        let currents = map.block_currents(&block).unwrap();
        for (row, row_levels) in block.iter().enumerate() {
            for (column, level) in row_levels.iter().enumerate() {
                let expected = match level {
                    Some(level) => map.current_for_level(*level).unwrap(),
                    None => 0.0,
                };
                assert_eq!(currents[row][column], expected);
            }
        }
        assert!(map.block_currents(&[vec![Some(99)]]).is_err());
    }

    #[test]
    fn construction_validation() {
        assert!(LevelCurrentMap::new(0.0, 1e-6, 4).is_err());
        assert!(LevelCurrentMap::new(1e-6, 1e-7, 4).is_err());
        assert!(LevelCurrentMap::new(1e-7, 1e-6, 1).is_err());
        assert!(LevelCurrentMap::febim_default(10).is_ok());
    }

    #[test]
    fn ten_levels_span_the_paper_window() {
        let map = LevelCurrentMap::febim_default(10).unwrap();
        assert!((map.current_for_level(0).unwrap() - 0.1e-6).abs() < 1e-15);
        assert!((map.current_for_level(9).unwrap() - 1.0e-6).abs() < 1e-15);
        assert!((map.current_for_level(5).unwrap() - 0.6e-6).abs() < 1e-12);
        assert!(map.current_for_level(10).is_err());
    }

    #[test]
    fn currents_are_monotone_in_level() {
        let map = LevelCurrentMap::febim_default(4).unwrap();
        let mut previous = 0.0;
        for level in 0..4 {
            let current = map.current_for_level(level).unwrap();
            assert!(current > previous);
            previous = current;
        }
    }

    #[test]
    fn programmed_states_match_the_map() {
        let map = LevelCurrentMap::febim_default(10).unwrap();
        let states = map.programmed_states().unwrap();
        assert_eq!(states.len(), 10);
        for (level, state) in states.iter().enumerate() {
            let expected = map.current_for_level(level).unwrap();
            assert!((state.target_current - expected).abs() / expected < 1e-9);
        }
        // Pulse counts grow with the level (Fig. 4(b)).
        for pair in states.windows(2) {
            assert!(pair[1].write_config.pulse_count > pair[0].write_config.pulse_count);
        }
    }
}
