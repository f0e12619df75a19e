//! Personas: the experiment's treatment and control arms (§3.1).

use alexa_platform::SkillCategory;

/// One experimental persona.
///
/// Nine *interest* personas (one per skill category), one *vanilla* control
/// (Amazon account + Echo, no skill interaction), and three *web* controls
/// primed by browsing topical websites instead of using an Echo.
///
/// A persona keys the observation maps and reads as its display name: `Ord`
/// compares [`Persona::name`] (so maps iterate in the paper's name order)
/// and `Debug` prints the quoted name, exactly as `&str` does.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub enum Persona {
    /// Treatment: installs and interacts with one category's top-50 skills.
    Interest(SkillCategory),
    /// Control: Amazon account and Echo, no skill installed or used.
    Vanilla,
    /// Control: primed by browsing top health websites.
    WebHealth,
    /// Control: primed by browsing top science websites.
    WebScience,
    /// Control: primed by browsing top computers websites.
    WebComputers,
}

impl Persona {
    /// The three personas that run audio-ad sessions (§3.3), in the fixed
    /// order their session seeds are derived from and Table 9 lists them.
    pub const AUDIO: [Persona; 3] = [
        Persona::Interest(SkillCategory::ConnectedCar),
        Persona::Interest(SkillCategory::FashionStyle),
        Persona::Vanilla,
    ];

    /// All 13 personas: 9 interest + vanilla + 3 web controls.
    pub fn all() -> [Persona; 13] {
        let [a, b, c, d, e, f, g, h, i, vanilla] = Persona::echo_personas();
        let [health, science, computers] = Persona::web_personas();
        [
            a, b, c, d, e, f, g, h, i, vanilla, health, science, computers,
        ]
    }

    /// The 10 Echo personas (interest + vanilla) that own devices.
    pub fn echo_personas() -> [Persona; 10] {
        let [a, b, c, d, e, f, g, h, i] = SkillCategory::ALL.map(Persona::Interest);
        [a, b, c, d, e, f, g, h, i, Persona::Vanilla]
    }

    /// The three web control personas.
    pub fn web_personas() -> [Persona; 3] {
        [
            Persona::WebHealth,
            Persona::WebScience,
            Persona::WebComputers,
        ]
    }

    /// Display name, matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Persona::Interest(c) => c.label(),
            Persona::Vanilla => "Vanilla",
            Persona::WebHealth => "Web Health",
            Persona::WebScience => "Web Science",
            Persona::WebComputers => "Web Computers",
        }
    }

    /// The dedicated Amazon account name for this persona.
    pub fn account(self) -> String {
        match self {
            Persona::Interest(c) => format!("persona-{}", c.slug()),
            Persona::Vanilla => "persona-vanilla".to_string(),
            Persona::WebHealth => "persona-web-health".to_string(),
            Persona::WebScience => "persona-web-science".to_string(),
            Persona::WebComputers => "persona-web-computers".to_string(),
        }
    }

    /// The interest category, for interest personas.
    pub fn category(self) -> Option<SkillCategory> {
        match self {
            Persona::Interest(c) => Some(c),
            _ => None,
        }
    }

    /// The web priming topic, for web personas.
    pub fn web_topic(self) -> Option<&'static str> {
        match self {
            Persona::WebHealth => Some("health"),
            Persona::WebScience => Some("science"),
            Persona::WebComputers => Some("computers"),
            _ => None,
        }
    }

    /// Whether this persona owns an Echo device.
    pub fn has_echo(self) -> bool {
        matches!(self, Persona::Interest(_) | Persona::Vanilla)
    }
}

impl std::fmt::Display for Persona {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::fmt::Debug for Persona {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(self.name(), f)
    }
}

impl Ord for Persona {
    fn cmp(&self, other: &Persona) -> std::cmp::Ordering {
        self.name().cmp(other.name())
    }
}

impl PartialOrd for Persona {
    fn partial_cmp(&self, other: &Persona) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thirteen_personas_total() {
        assert_eq!(Persona::all().len(), 13);
        assert_eq!(Persona::echo_personas().len(), 10);
    }

    #[test]
    fn accounts_are_unique() {
        let mut accounts: Vec<String> = Persona::all().iter().map(|p| p.account()).collect();
        accounts.sort();
        let n = accounts.len();
        accounts.dedup();
        assert_eq!(accounts.len(), n);
    }

    #[test]
    fn echo_and_web_split() {
        assert!(Persona::Vanilla.has_echo());
        assert!(Persona::Interest(SkillCategory::Dating).has_echo());
        assert!(!Persona::WebHealth.has_echo());
        assert_eq!(Persona::WebScience.web_topic(), Some("science"));
        assert_eq!(Persona::Vanilla.web_topic(), None);
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(
            Persona::Interest(SkillCategory::FashionStyle).name(),
            "Fashion & Style"
        );
        assert_eq!(Persona::Vanilla.name(), "Vanilla");
    }

    #[test]
    fn order_and_debug_are_the_names() {
        // Maps keyed by persona must iterate, and print, exactly as maps
        // keyed by the name text did.
        let mut by_ord = Persona::all();
        by_ord.sort();
        let mut by_name = Persona::all();
        by_name.sort_by_key(|p| p.name());
        assert_eq!(by_ord, by_name);
        for p in Persona::all() {
            assert_eq!(format!("{p:?}"), format!("{:?}", p.name()));
        }
    }
}
