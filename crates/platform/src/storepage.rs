//! Skill store pages and their scraping.
//!
//! §3.1.1: the paper's Selenium crawler visits each skill's marketplace
//! page, installs the skill, and "parse\[s\] skill descriptions to extract
//! additional invocation utterances provided by the skill developer". This
//! module renders the store page a skill would have and provides the parser
//! the audit uses — so the experiment's utterance list comes from the same
//! observable surface the paper scraped, not from simulation ground truth.

use crate::skill::Skill;

/// Render the marketplace page for a skill (the crawl target).
pub fn render_store_page(skill: &Skill) -> String {
    let mut page = String::new();
    page.push_str(&format!("# {}\n", skill.name));
    page.push_str(&format!("by {}\n", skill.vendor));
    page.push_str(&format!("Category: {}\n", skill.category));
    page.push_str(&format!("{} customer reviews\n\n", skill.reviews));
    page.push_str(&format!(
        "{} brings {} right to your Echo device.\n\n",
        skill.name,
        skill.category.label().to_ascii_lowercase()
    ));
    page.push_str(&format!("Say: \"Alexa, open {}\"\n", skill.invocation));
    for utterance in &skill.sample_utterances {
        page.push_str(&format!("Try saying: \"Alexa, {utterance}\"\n"));
    }
    if skill.requires_account_linking {
        page.push_str("\nAccount linking required.\n");
    }
    if skill.policy.has_link {
        page.push_str(&format!(
            "\nPrivacy policy: https://{}.example.com/privacy\n",
            skill
                .vendor
                .to_ascii_lowercase()
                .replace([' ', ',', '.', '\''], "")
        ));
    }
    page
}

/// Extract the invocation phrase from a store page (`Say: "Alexa, open …"`).
pub fn parse_invocation(page: &str) -> Option<String> {
    for line in page.lines() {
        if let Some(rest) = line.trim().strip_prefix("Say: \"Alexa, open ") {
            return Some(rest.trim_end_matches('"').to_string());
        }
    }
    None
}

/// Extract the developer-listed sample utterances from a store page.
pub fn parse_sample_utterances(page: &str) -> Vec<String> {
    page.lines()
        .filter_map(|line| {
            line.trim()
                .strip_prefix("Try saying: \"Alexa, ")
                .map(|rest| rest.trim_end_matches('"').to_string())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::category::SkillCategory;
    use crate::skill::{PolicySpec, SkillId};

    fn skill() -> Skill {
        Skill {
            id: SkillId("s".into()),
            name: "Garmin".into(),
            vendor: "Garmin International".into(),
            category: SkillCategory::ConnectedCar,
            invocation: "garmin".into(),
            sample_utterances: vec!["where is my car".into(), "lock the doors".into()],
            reviews: 2143,
            streaming: true,
            fails_to_load: false,
            requires_account_linking: false,
            permissions: vec![],
            backends: vec![],
            collects: vec![],
            policy: PolicySpec {
                has_link: true,
                retrievable: true,
                ..PolicySpec::none()
            },
        }
    }

    #[test]
    fn page_lists_everything() {
        let page = render_store_page(&skill());
        assert!(page.contains("# Garmin"));
        assert!(page.contains("2143 customer reviews"));
        assert!(page.contains("Try saying: \"Alexa, where is my car\""));
        assert!(
            page.contains("\nPrivacy policy: https://garmininternational.example.com/privacy\n")
        );
    }

    #[test]
    fn scrape_roundtrips_utterances() {
        let s = skill();
        let page = render_store_page(&s);
        assert_eq!(parse_sample_utterances(&page), s.sample_utterances);
        assert_eq!(parse_invocation(&page).as_deref(), Some("garmin"));
    }

    #[test]
    fn page_without_policy_has_no_link() {
        let mut s = skill();
        s.policy = PolicySpec::none();
        assert!(!render_store_page(&s).contains("Privacy policy:"));
    }

    #[test]
    fn account_linking_notice() {
        let mut s = skill();
        s.requires_account_linking = true;
        assert!(render_store_page(&s).contains("Account linking required"));
    }

    #[test]
    fn parser_tolerates_unrelated_lines() {
        let page = "random text\nTry saying: \"Alexa, do the thing\"\nmore text";
        assert_eq!(parse_sample_utterances(page), vec!["do the thing"]);
        assert_eq!(parse_invocation(page), None);
    }
}
