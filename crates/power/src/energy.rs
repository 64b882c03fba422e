//! Energy accounting on top of the instantaneous power model.
//!
//! The paper optimises *power* for a steady communication pattern; systems
//! people usually want the integral. These helpers convert a routing's
//! power breakdown into energy over an interval and expose the discrete
//! frequency ladder for DVFS-aware tooling.

use crate::model::{FrequencyScale, PowerModel};

impl PowerModel {
    /// The discrete frequency levels (in load units), or `None` for a
    /// continuous model.
    pub fn levels(&self) -> Option<&[f64]> {
        match &self.scale {
            FrequencyScale::Discrete(l) => Some(l),
            FrequencyScale::Continuous => None,
        }
    }

    /// The highest effective bandwidth any link can run at.
    pub fn max_bandwidth(&self) -> f64 {
        match &self.scale {
            FrequencyScale::Discrete(l) => *l.last().expect("discrete model has levels"),
            FrequencyScale::Continuous => self.capacity,
        }
    }

    /// Power of an active link running at a given *level* (not load):
    /// useful to tabulate the ladder. The level must be positive.
    pub fn power_at_level(&self, level: f64) -> f64 {
        assert!(level > 0.0);
        self.p_leak + self.p0 * (level * self.load_unit).powf(self.alpha)
    }

    /// The `(level, power)` ladder of a discrete model.
    pub fn power_ladder(&self) -> Vec<(f64, f64)> {
        self.levels()
            .map(|ls| ls.iter().map(|&l| (l, self.power_at_level(l))).collect())
            .unwrap_or_default()
    }

    /// Energy (power × duration) of carrying `load` on one link for
    /// `seconds`; power in mW and seconds give millijoules.
    pub fn link_energy(&self, load: f64, seconds: f64) -> Result<f64, crate::Infeasible> {
        Ok(self.link_power(load)? * seconds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_of_the_campaign_model() {
        let m = PowerModel::kim_horowitz();
        let ladder = m.power_ladder();
        assert_eq!(ladder.len(), 3);
        assert_eq!(ladder[0].0, 1000.0);
        assert_eq!(ladder[2].0, 3500.0);
        // Powers strictly increase along the ladder.
        assert!(ladder[0].1 < ladder[1].1 && ladder[1].1 < ladder[2].1);
        // And match the fitted formula: 16.9 + 5.41·f^2.95 (f in Gb/s).
        assert!((ladder[0].1 - (16.9 + 5.41)).abs() < 1e-9);
        assert!((ladder[1].1 - (16.9 + 5.41 * 2.5f64.powf(2.95))).abs() < 1e-9);
    }

    #[test]
    fn levels_and_max_bandwidth() {
        let d = PowerModel::kim_horowitz();
        assert_eq!(d.levels().unwrap().len(), 3);
        assert_eq!(d.max_bandwidth(), 3500.0);
        let c = PowerModel::continuous(0.0, 1.0, 3.0, 7.5);
        assert!(c.levels().is_none());
        assert_eq!(c.max_bandwidth(), 7.5);
        assert!(c.power_ladder().is_empty());
    }

    #[test]
    fn energy_is_power_times_time() {
        let m = PowerModel::kim_horowitz();
        let e = m.link_energy(900.0, 2.0).unwrap();
        assert!((e - 2.0 * (16.9 + 5.41)).abs() < 1e-9);
        assert!(m.link_energy(9000.0, 1.0).is_err());
        assert_eq!(m.link_energy(0.0, 5.0).unwrap(), 0.0);
    }
}
