//! The nine skill categories the paper's interest personas are built from.

/// Skill categories studied by the paper (§3.1.1). Each interest persona
/// installs and interacts with the top-50 skills of exactly one category and
/// is referred to by the category name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SkillCategory {
    /// Vehicle companion skills (Garmin, FordPass, …).
    ConnectedCar,
    /// Dating and relationship advice skills.
    Dating,
    /// Fashion, makeup and style skills.
    FashionStyle,
    /// Pet sounds, pet care and animal facts skills.
    PetsAnimals,
    /// Prayer, scripture and religious radio skills.
    ReligionSpirituality,
    /// Device-vendor smart-home control skills.
    SmartHome,
    /// Wine pairing and beverage skills.
    WineBeverages,
    /// Workout, wellness and health-information skills.
    HealthFitness,
    /// Navigation and trip-planning skills.
    NavigationTripPlanners,
}

impl SkillCategory {
    /// All nine categories, in the paper's table order.
    pub const ALL: [SkillCategory; 9] = [
        SkillCategory::ConnectedCar,
        SkillCategory::Dating,
        SkillCategory::FashionStyle,
        SkillCategory::PetsAnimals,
        SkillCategory::ReligionSpirituality,
        SkillCategory::SmartHome,
        SkillCategory::WineBeverages,
        SkillCategory::HealthFitness,
        SkillCategory::NavigationTripPlanners,
    ];

    /// The marketplace category name as the paper prints it.
    pub fn label(self) -> &'static str {
        match self {
            SkillCategory::ConnectedCar => "Connected Car",
            SkillCategory::Dating => "Dating",
            SkillCategory::FashionStyle => "Fashion & Style",
            SkillCategory::PetsAnimals => "Pets & Animals",
            SkillCategory::ReligionSpirituality => "Religion & Spirituality",
            SkillCategory::SmartHome => "Smart Home",
            SkillCategory::WineBeverages => "Wine & Beverages",
            SkillCategory::HealthFitness => "Health & Fitness",
            SkillCategory::NavigationTripPlanners => "Navigation & Trip Planners",
        }
    }

    /// A short slug used in identifiers.
    pub fn slug(self) -> &'static str {
        match self {
            SkillCategory::ConnectedCar => "car",
            SkillCategory::Dating => "dating",
            SkillCategory::FashionStyle => "fashion",
            SkillCategory::PetsAnimals => "pets",
            SkillCategory::ReligionSpirituality => "religion",
            SkillCategory::SmartHome => "smarthome",
            SkillCategory::WineBeverages => "wine",
            SkillCategory::HealthFitness => "health",
            SkillCategory::NavigationTripPlanners => "navigation",
        }
    }
}

impl std::fmt::Display for SkillCategory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nine_distinct_categories() {
        let set: std::collections::BTreeSet<_> = SkillCategory::ALL.iter().collect();
        assert_eq!(set.len(), 9);
    }

    #[test]
    fn labels_and_slugs_are_unique() {
        let labels: std::collections::BTreeSet<_> =
            SkillCategory::ALL.iter().map(|c| c.label()).collect();
        let slugs: std::collections::BTreeSet<_> =
            SkillCategory::ALL.iter().map(|c| c.slug()).collect();
        assert_eq!(labels.len(), 9);
        assert_eq!(slugs.len(), 9);
    }

    #[test]
    fn display_matches_label() {
        assert_eq!(SkillCategory::FashionStyle.to_string(), "Fashion & Style");
    }
}
