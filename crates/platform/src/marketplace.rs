//! The Alexa skill marketplace: a deterministic 450-skill catalog.
//!
//! The paper audits the top-50 skills (by review count) of nine categories.
//! We reconstruct that catalog: every skill the paper names (Tables 1, 4,
//! 14, §5.3, §7.2) is **pinned** with its documented endpoints and policy
//! behaviour; the remaining slots are filled with synthetic skills whose
//! behaviour is sampled (seeded) so the catalog's marginals match the
//! paper's measurements:
//!
//! * 446 skills contact Amazon, 4 fail to load (Table 1);
//! * only Garmin and the YouVersion skills send traffic to vendor-owned
//!   domains (Table 1);
//! * ~32 skills contact non-Amazon endpoints at all (Table 14), with the
//!   per-persona advertising/tracking vs functional domain counts of
//!   Table 3;
//! * 326 skills collect persistent identifiers, 434 user preferences, 385
//!   device events (Table 13);
//! * 214 skills link a privacy policy, 188 retrievable, 59 mention
//!   Amazon/Alexa, 10 link Amazon's own policy (§7.1);
//! * per-data-type clear/vague disclosure counts of Table 13.

use crate::category::SkillCategory;
use crate::skill::{DisclosureLevel, Permission, PolicySpec, Skill, SkillId};
use alexa_net::{DataType, Domain, OrgMap};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Policy shape for a pinned skill.
#[derive(Clone, Copy, Debug)]
enum PinPolicy {
    /// No privacy-policy link on the marketplace page.
    None,
    /// Linked and retrievable, but generic: never mentions Amazon/Alexa.
    Generic,
    /// Linked, retrievable and mentions the platform.
    Platform {
        /// Links to Amazon's own privacy policy.
        links: bool,
        /// Quality of the disclosure of Amazon's data collection.
        amazon: DisclosureLevel,
    },
    /// Linked but the download fails (dead link).
    Broken,
}

/// A pinned (paper-named) skill.
struct Pin {
    name: &'static str,
    cat: SkillCategory,
    vendor: &'static str,
    backends: &'static [&'static str],
    streaming: bool,
    reviews: u32,
    policy: PinPolicy,
}

use DisclosureLevel::{Clear, Vague};
use PinPolicy::{Broken, Generic, None as NoPol, Platform};
use SkillCategory::*;

/// Every skill the paper names, with its documented behaviour.
const PINNED: &[Pin] = &[
    // ----- Connected Car ---------------------------------------------------
    Pin {
        name: "Garmin",
        cat: ConnectedCar,
        vendor: "Garmin International",
        backends: &[
            "static.garmincdn.com",
            "chtbl.com",
            "traffic.omny.fm",
            "dts.podtrac.com",
            "turnernetworksales.mc.tritondigital.com",
        ],
        streaming: true,
        reviews: 2143,
        policy: Platform {
            links: false,
            amazon: Vague,
        },
    },
    Pin {
        name: "My Tesla (Unofficial)",
        cat: ConnectedCar,
        vendor: "Apps4Autos",
        backends: &["chtbl.com", "traffic.megaphone.fm"],
        streaming: false,
        reviews: 812,
        policy: NoPol,
    },
    Pin {
        name: "Genesis",
        cat: ConnectedCar,
        vendor: "Genesis Motors USA",
        backends: &["play.podtrac.com", "ads.spotify.com"],
        streaming: false,
        reviews: 398,
        policy: Generic,
    },
    Pin {
        name: "FordPass",
        cat: ConnectedCar,
        vendor: "Ford Motor Company",
        backends: &[],
        streaming: false,
        reviews: 1650,
        policy: Generic,
    },
    Pin {
        name: "Jeep",
        cat: ConnectedCar,
        vendor: "FCA US LLC",
        backends: &[],
        streaming: false,
        reviews: 912,
        policy: Generic,
    },
    Pin {
        name: "AAA Road Service",
        cat: ConnectedCar,
        vendor: "AAA",
        backends: &[],
        streaming: false,
        reviews: 510,
        policy: NoPol,
    },
    // ----- Dating -----------------------------------------------------------
    Pin {
        name: "Dating and Relationship Tips and advices",
        cat: Dating,
        vendor: "Aaron Spelling",
        backends: &[
            "play.podtrac.com",
            "dcs.megaphone.fm",
            "traffic.megaphone.fm",
        ],
        streaming: true,
        reviews: 96,
        policy: NoPol,
    },
    Pin {
        name: "Love Trouble",
        cat: Dating,
        vendor: "Xeline Development",
        backends: &[
            "dts.podtrac.com",
            "audio-ads.spotify.com",
            "dcs.megaphone.fm",
        ],
        streaming: false,
        reviews: 61,
        policy: NoPol,
    },
    Pin {
        name: "Angry Girlfriend",
        cat: Dating,
        vendor: "GagWorks",
        backends: &["discovery.meethue.com"],
        streaming: false,
        reviews: 44,
        policy: NoPol,
    },
    Pin {
        name: "Crush Calculator",
        cat: Dating,
        vendor: "FunVoice Labs",
        backends: &["traffic.megaphone.fm"],
        streaming: true,
        reviews: 38,
        policy: NoPol,
    },
    Pin {
        name: "Date Night Ideas",
        cat: Dating,
        vendor: "FunVoice Labs",
        backends: &["dcs.megaphone.fm"],
        streaming: true,
        reviews: 29,
        policy: Generic,
    },
    // ----- Fashion & Style --------------------------------------------------
    Pin {
        name: "Makeup of the Day",
        cat: FashionStyle,
        vendor: "Xeline Development",
        backends: &[
            "dcs.megaphone.fm",
            "traffic.megaphone.fm",
            "play.podtrac.com",
            "chtbl.com",
            "play.pod.npr.org",
            "audio-sdk.spotify.com",
        ],
        streaming: true,
        reviews: 187,
        policy: NoPol,
    },
    Pin {
        name: "Men's Finest Daily Fashion Tip",
        cat: FashionStyle,
        vendor: "Men's Finest",
        backends: &[
            "play.podtrac.com",
            "dcs.megaphone.fm",
            "traffic.megaphone.fm",
            "ondemand.pod.npr.org",
            "analytics.spotify.com",
        ],
        streaming: false,
        reviews: 13,
        policy: NoPol,
    },
    Pin {
        name: "Gwynnie Bee",
        cat: FashionStyle,
        vendor: "Gwynnie Bee Inc",
        backends: &["dts.podtrac.com", "ads.spotify.com", "traffic.megaphone.fm"],
        streaming: false,
        reviews: 154,
        policy: Generic,
    },
    Pin {
        name: "Daily Style Report",
        cat: FashionStyle,
        vendor: "StyleMedia",
        backends: &[
            "dcs.megaphone.fm",
            "img.fashioncdn.net",
            "tips.fashioncdn.net",
        ],
        streaming: false,
        reviews: 77,
        policy: NoPol,
    },
    Pin {
        name: "Outfit Check!",
        cat: FashionStyle,
        vendor: "StyleCo",
        backends: &[],
        streaming: false,
        reviews: 208,
        policy: NoPol,
    },
    // ----- Pets & Animals ---------------------------------------------------
    Pin {
        name: "VCA Animal Hospitals",
        cat: PetsAnimals,
        vendor: "VCA Animal Hospitals",
        backends: &[
            "dillilabs.com",
            "wellness.petmedia.net",
            "locations.petmedia.net",
        ],
        streaming: false,
        reviews: 320,
        policy: Platform {
            links: false,
            amazon: Vague,
        },
    },
    Pin {
        name: "EcoSmart Live",
        cat: PetsAnimals,
        vendor: "EcoSmart",
        backends: &["dillilabs.com", "api.ecosmartlive.net"],
        streaming: false,
        reviews: 150,
        policy: NoPol,
    },
    Pin {
        name: "Dog Squeaky Toy",
        cat: PetsAnimals,
        vendor: "PetApps Co",
        backends: &["dillilabs.com", "sounds.squeakcdn.net"],
        streaming: false,
        reviews: 540,
        policy: Generic,
    },
    Pin {
        name: "Relax My Pet",
        cat: PetsAnimals,
        vendor: "PetApps Co",
        backends: &["dillilabs.com"],
        streaming: false,
        reviews: 410,
        policy: Generic,
    },
    Pin {
        name: "Dinosaur Sounds",
        cat: PetsAnimals,
        vendor: "PetApps Co",
        backends: &["dillilabs.com", "roar.soundlibrary.net"],
        streaming: false,
        reviews: 290,
        policy: NoPol,
    },
    Pin {
        name: "Cat Sounds",
        cat: PetsAnimals,
        vendor: "PetApps Co",
        backends: &["dillilabs.com"],
        streaming: false,
        reviews: 233,
        policy: NoPol,
    },
    Pin {
        name: "Hush Puppy",
        cat: PetsAnimals,
        vendor: "PetApps Co",
        backends: &["dillilabs.com"],
        streaming: false,
        reviews: 160,
        policy: NoPol,
    },
    Pin {
        name: "Calm My Dog",
        cat: PetsAnimals,
        vendor: "PetApps Co",
        backends: &["dillilabs.com"],
        streaming: false,
        reviews: 602,
        policy: Generic,
    },
    Pin {
        name: "Calm My Pet",
        cat: PetsAnimals,
        vendor: "PetApps Co",
        backends: &["dillilabs.com", "cdn.libsyn.com", "media.libsyn.com"],
        streaming: true,
        reviews: 488,
        policy: Generic,
    },
    Pin {
        name: "Al's Dog Training Tips",
        cat: PetsAnimals,
        vendor: "Al's Dog Training",
        backends: &[
            "cdn.libsyn.com",
            "media.libsyn.com",
            "traffic.megaphone.fm",
            "content.dogtrainingtips.net",
        ],
        streaming: true,
        reviews: 122,
        policy: NoPol,
    },
    Pin {
        name: "Relaxing Sounds: Spa Music",
        cat: PetsAnimals,
        vendor: "Invoked Apps LLC",
        backends: &["1432239411.rsc.cdn77.org", "spa-audio.cdnstream.net"],
        streaming: true,
        reviews: 1900,
        policy: Generic,
    },
    Pin {
        name: "Comfort My Dog",
        cat: PetsAnimals,
        vendor: "Invoked Apps LLC",
        backends: &["1432239411.rsc.cdn77.org", "calm.petwave.net"],
        streaming: true,
        reviews: 415,
        policy: Generic,
    },
    Pin {
        name: "Calm My Cat",
        cat: PetsAnimals,
        vendor: "Invoked Apps LLC",
        backends: &["1432239411.rsc.cdn77.org", "purr.petwave.net"],
        streaming: true,
        reviews: 260,
        policy: Generic,
    },
    Pin {
        name: "My Dog",
        cat: PetsAnimals,
        vendor: "PetVoice",
        backends: &[],
        streaming: false,
        reviews: 190,
        policy: NoPol,
    },
    Pin {
        name: "My Cat",
        cat: PetsAnimals,
        vendor: "PetVoice",
        backends: &[],
        streaming: false,
        reviews: 165,
        policy: NoPol,
    },
    Pin {
        name: "Pet Buddy",
        cat: PetsAnimals,
        vendor: "PetVoice",
        backends: &[],
        streaming: false,
        reviews: 105,
        policy: NoPol,
    },
    // ----- Religion & Spirituality -------------------------------------------
    Pin {
        name: "Charles Stanley Radio",
        cat: ReligionSpirituality,
        vendor: "In Touch Ministries",
        backends: &[
            "primary.streamtheworld.com",
            "backup.streamtheworld.com",
            "cdn2.voiceapps.com",
        ],
        streaming: true,
        reviews: 231,
        policy: Platform {
            links: false,
            amazon: Vague,
        },
    },
    Pin {
        name: "Gospel Radio Live",
        cat: ReligionSpirituality,
        vendor: "FaithStream",
        backends: &["live.streamtheworld.com", "primary.streamtheworld.com"],
        streaming: true,
        reviews: 98,
        policy: NoPol,
    },
    Pin {
        name: "Morning Praise Radio",
        cat: ReligionSpirituality,
        vendor: "FaithStream",
        backends: &["backup.streamtheworld.com"],
        streaming: true,
        reviews: 54,
        policy: NoPol,
    },
    Pin {
        name: "YouVersion Bible",
        cat: ReligionSpirituality,
        vendor: "Life Covenant Church, Inc.",
        backends: &["api.youversionapi.com", "cdn.youversionapi.com"],
        streaming: false,
        reviews: 3120,
        policy: Platform {
            links: true,
            amazon: Clear,
        },
    },
    Pin {
        name: "Lords Prayer",
        cat: ReligionSpirituality,
        vendor: "Life Covenant Church, Inc.",
        backends: &["api.youversionapi.com"],
        streaming: false,
        reviews: 220,
        policy: Generic,
    },
    Pin {
        name: "Say a Prayer",
        cat: ReligionSpirituality,
        vendor: "DailyGrace",
        backends: &["discovery.meethue.com"],
        streaming: false,
        reviews: 330,
        policy: NoPol,
    },
    Pin {
        name: "Prayer Time",
        cat: ReligionSpirituality,
        vendor: "Daily Devotion Co",
        backends: &["cdn2.voiceapps.com", "api.prayertimes.org"],
        streaming: false,
        reviews: 480,
        policy: Generic,
    },
    Pin {
        name: "Morning Bible Inspiration",
        cat: ReligionSpirituality,
        vendor: "Daily Devotion Co",
        backends: &["cdn2.voiceapps.com", "verses.scripturecdn.net"],
        streaming: false,
        reviews: 240,
        policy: NoPol,
    },
    Pin {
        name: "Holy Rosary",
        cat: ReligionSpirituality,
        vendor: "Daily Devotion Co",
        backends: &["cdn2.voiceapps.com", "audio.rosarycdn.net"],
        streaming: false,
        reviews: 410,
        policy: Generic,
    },
    Pin {
        name: "meal prayer",
        cat: ReligionSpirituality,
        vendor: "Daily Devotion Co",
        backends: &["cdn2.voiceapps.com", "content.graceprayers.net"],
        streaming: false,
        reviews: 130,
        policy: NoPol,
    },
    Pin {
        name: "Halloween Sounds",
        cat: ReligionSpirituality,
        vendor: "Daily Devotion Co",
        backends: &["cdn2.voiceapps.com", "spooky.soundlibrary.net"],
        streaming: false,
        reviews: 85,
        policy: NoPol,
    },
    Pin {
        name: "Bible Trivia",
        cat: ReligionSpirituality,
        vendor: "Daily Devotion Co",
        backends: &["cdn2.voiceapps.com", "questions.bibletrivia.net"],
        streaming: false,
        reviews: 505,
        policy: Generic,
    },
    Pin {
        name: "Single Decade Short Rosary",
        cat: ReligionSpirituality,
        vendor: "DailyGrace",
        backends: &[],
        streaming: false,
        reviews: 66,
        policy: NoPol,
    },
    Pin {
        name: "Islamic Prayer Times",
        cat: ReligionSpirituality,
        vendor: "Ummah Apps",
        backends: &[],
        streaming: false,
        reviews: 301,
        policy: NoPol,
    },
    Pin {
        name: "Salah Time",
        cat: ReligionSpirituality,
        vendor: "Ummah Apps",
        backends: &[],
        streaming: false,
        reviews: 147,
        policy: NoPol,
    },
    Pin {
        name: "Rain Storm by Healing FM",
        cat: ReligionSpirituality,
        vendor: "Healing FM",
        backends: &[],
        streaming: true,
        reviews: 710,
        policy: NoPol,
    },
    // ----- Smart Home ---------------------------------------------------------
    Pin {
        name: "Sonos",
        cat: SmartHome,
        vendor: "Sonos Inc",
        backends: &[],
        streaming: false,
        reviews: 2900,
        policy: Platform {
            links: true,
            amazon: Clear,
        },
    },
    Pin {
        name: "Dyson",
        cat: SmartHome,
        vendor: "Dyson Limited",
        backends: &[],
        streaming: false,
        reviews: 860,
        policy: Generic,
    },
    Pin {
        name: "Harmony",
        cat: SmartHome,
        vendor: "Logitech",
        backends: &[],
        streaming: false,
        reviews: 4100,
        policy: Platform {
            links: false,
            amazon: Vague,
        },
    },
    Pin {
        name: "Hue",
        cat: SmartHome,
        vendor: "Philips International B.V.",
        backends: &[],
        streaming: false,
        reviews: 3300,
        policy: Generic,
    },
    Pin {
        name: "SimpliSafe",
        cat: SmartHome,
        vendor: "SimpliSafe",
        backends: &[],
        streaming: false,
        reviews: 690,
        policy: Generic,
    },
    Pin {
        name: "SmartThings",
        cat: SmartHome,
        vendor: "Samsung",
        backends: &[],
        streaming: false,
        reviews: 2200,
        policy: Generic,
    },
    Pin {
        name: "LG ThinQ",
        cat: SmartHome,
        vendor: "LG",
        backends: &[],
        streaming: false,
        reviews: 540,
        policy: Generic,
    },
    Pin {
        name: "Xbox",
        cat: SmartHome,
        vendor: "Microsoft",
        backends: &[],
        streaming: false,
        reviews: 1700,
        policy: Generic,
    },
    Pin {
        name: "iRobot Home",
        cat: SmartHome,
        vendor: "iRobot",
        backends: &[],
        streaming: false,
        reviews: 980,
        policy: Generic,
    },
    // ----- Health & Fitness ---------------------------------------------------
    Pin {
        name: "Air Quality Report",
        cat: HealthFitness,
        vendor: "ICM",
        backends: &["data.airquality.net"],
        streaming: false,
        reviews: 410,
        policy: Broken,
    },
    Pin {
        name: "Essential Oil Benefits",
        cat: HealthFitness,
        vendor: "ttm",
        backends: &[],
        streaming: false,
        reviews: 175,
        policy: NoPol,
    },
];

/// Thematic noun pools for synthetic skill names, per category.
fn name_pool(cat: SkillCategory) -> (&'static [&'static str], &'static [&'static str]) {
    match cat {
        ConnectedCar => (
            &[
                "Road", "Drive", "Garage", "Fuel", "Traffic", "Auto", "Motor", "Highway",
            ],
            &[
                "Assistant",
                "Companion",
                "Tracker",
                "Alerts",
                "Facts",
                "Check",
                "Buddy",
                "Report",
            ],
        ),
        Dating => (
            &[
                "Romance", "Crush", "Flirt", "Heart", "Match", "Love", "Charm", "Spark",
            ],
            &[
                "Advice", "Quiz", "Lines", "Coach", "Tips", "Stories", "Helper", "Facts",
            ],
        ),
        FashionStyle => (
            &[
                "Style", "Trend", "Chic", "Wardrobe", "Glam", "Runway", "Couture", "Vogue",
            ],
            &[
                "Tips", "Daily", "Advisor", "Check", "Guide", "Facts", "Coach", "Quiz",
            ],
        ),
        PetsAnimals => (
            &[
                "Puppy", "Kitten", "Bird", "Animal", "Wildlife", "Horse", "Fish", "Hamster",
            ],
            &[
                "Sounds", "Facts", "Trivia", "Care", "Stories", "Friend", "Guide", "Quiz",
            ],
        ),
        ReligionSpirituality => (
            &[
                "Daily", "Peaceful", "Sacred", "Blessed", "Gospel", "Spirit", "Faith", "Grace",
            ],
            &[
                "Verse",
                "Devotion",
                "Meditation",
                "Hymns",
                "Psalms",
                "Reflection",
                "Wisdom",
                "Prayers",
            ],
        ),
        SmartHome => (
            &[
                "Home",
                "Light",
                "Thermostat",
                "Garage",
                "Plug",
                "Sensor",
                "Camera",
                "Blind",
            ],
            &[
                "Control", "Manager", "Helper", "Hub", "Scenes", "Routines", "Switch", "Monitor",
            ],
        ),
        WineBeverages => (
            &[
                "Wine", "Vineyard", "Cellar", "Brew", "Cocktail", "Coffee", "Tea", "Whiskey",
            ],
            &[
                "Pairing", "Facts", "Guide", "Journal", "Finder", "Tips", "Trivia", "Notes",
            ],
        ),
        HealthFitness => (
            &[
                "Workout",
                "Fitness",
                "Wellness",
                "Sleep",
                "Yoga",
                "Cardio",
                "Mindful",
                "Nutrition",
            ],
            &[
                "Coach", "Timer", "Tracker", "Tips", "Guide", "Routine", "Facts", "Helper",
            ],
        ),
        NavigationTripPlanners => (
            &[
                "Trip", "Route", "Commute", "Transit", "Flight", "Journey", "City", "Travel",
            ],
            &[
                "Planner", "Tracker", "Guide", "Times", "Alerts", "Finder", "Helper", "Facts",
            ],
        ),
    }
}

/// Sample utterances for synthetic skills, themed per category.
fn utterance_pool(cat: SkillCategory) -> &'static [&'static str] {
    match cat {
        ConnectedCar => &["where is my car", "lock the doors", "what is my fuel level"],
        Dating => &[
            "give me a dating tip",
            "tell me a pickup line",
            "rate my date idea",
        ],
        FashionStyle => &[
            "what should i wear today",
            "give me a fashion tip",
            "what is trending",
        ],
        PetsAnimals => &["play dog sounds", "tell me an animal fact", "calm my pet"],
        ReligionSpirituality => &["read the verse of the day", "say a prayer", "play a hymn"],
        SmartHome => &[
            "turn on the lights",
            "set the thermostat",
            "is the door locked",
        ],
        WineBeverages => &[
            "pair a wine with dinner",
            "tell me a wine fact",
            "how do i brew coffee",
        ],
        HealthFitness => &["start a workout", "give me a health tip", "track my steps"],
        NavigationTripPlanners => &[
            "plan my commute",
            "when is the next bus",
            "find a route home",
        ],
    }
}

/// The generated marketplace.
#[derive(Debug, Clone)]
pub struct Marketplace {
    skills: Vec<Skill>,
    music_skills: Vec<Skill>,
}

/// Number of skills installed per category (the paper's top-50).
const SKILLS_PER_CATEGORY: usize = 50;

impl Marketplace {
    /// Generate the full catalog from a seed. The same seed always yields an
    /// identical catalog.
    ///
    /// ```
    /// use alexa_platform::{Marketplace, SkillCategory};
    /// let market = Marketplace::generate(42);
    /// assert_eq!(market.all().len(), 450);
    /// let top = market.top_skills(SkillCategory::ConnectedCar, 50);
    /// assert_eq!(top[0].name, "Garmin"); // the paper's most-reviewed car skill
    /// ```
    pub fn generate(seed: u64) -> Marketplace {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6d61726b6574);
        let mut skills: Vec<Skill> = Vec::with_capacity(450);

        for pin in PINNED {
            skills.push(skill_from_pin(pin));
        }

        // Fill every category to SKILLS_PER_CATEGORY with synthetic skills.
        for cat in SkillCategory::ALL {
            let have = skills.iter().filter(|s| s.category == cat).count();
            let (adjectives, nouns) = name_pool(cat);
            let mut made = 0usize;
            let mut salt = 0usize;
            while made < SKILLS_PER_CATEGORY - have {
                let adj = adjectives[(made + salt) % adjectives.len()];
                let noun = nouns[(made + salt) / adjectives.len() % nouns.len()];
                let name = if (made + salt) < adjectives.len() * nouns.len() {
                    format!("{adj} {noun}")
                } else {
                    format!("{adj} {noun} Plus")
                };
                if skills.iter().any(|s| s.name == name) {
                    salt += 1;
                    continue;
                }
                let reviews = rng.gen_range(5..400);
                skills.push(Skill {
                    id: SkillId(slugify(&name, cat)),
                    name,
                    vendor: format!("{} Studios", adj),
                    category: cat,
                    invocation: String::new(), // filled below from the name
                    sample_utterances: utterance_pool(cat).iter().map(|s| s.to_string()).collect(),
                    reviews,
                    streaming: false,
                    fails_to_load: false,
                    requires_account_linking: false,
                    permissions: vec![],
                    backends: vec![],
                    collects: vec![],
                    policy: PolicySpec::none(),
                });
                made += 1;
            }
        }

        // Invocation = lower-cased name for everything that lacks one.
        for s in &mut skills {
            if s.invocation.is_empty() {
                s.invocation = s.name.to_ascii_lowercase();
            }
        }

        // Mark 4 synthetic skills as failing to load (Table 1: 4 / 450).
        let mut synthetic_idx: Vec<usize> = skills
            .iter()
            .enumerate()
            .filter(|(_, s)| s.backends.is_empty() && !is_pinned(&s.name))
            .map(|(i, _)| i)
            .collect();
        synthetic_idx.shuffle(&mut rng);
        for &i in synthetic_idx.iter().take(4) {
            skills[i].fails_to_load = true;
        }

        // iRobot requires account linking (§3.1.1).
        if let Some(s) = skills.iter_mut().find(|s| s.name == "iRobot Home") {
            s.requires_account_linking = true;
        }

        assign_permissions(&mut skills, &mut rng);
        assign_data_collection(&mut skills, &mut rng);
        assign_policies(&mut skills, &mut rng);

        let music_skills = music_catalog();
        Marketplace {
            skills,
            music_skills,
        }
    }

    /// All 450 catalog skills.
    pub fn all(&self) -> &[Skill] {
        &self.skills
    }

    /// The audio-streaming skills used for the audio-ad experiment
    /// (Amazon Music, Spotify, Pandora) — outside the nine categories.
    pub fn music_skills(&self) -> &[Skill] {
        &self.music_skills
    }

    /// Top-`n` skills of a category by review count (the paper's selection).
    pub fn top_skills(&self, cat: SkillCategory, n: usize) -> Vec<&Skill> {
        let mut in_cat: Vec<&Skill> = self.skills.iter().filter(|s| s.category == cat).collect();
        in_cat.sort_by(|a, b| b.reviews.cmp(&a.reviews).then(a.name.cmp(&b.name)));
        in_cat.truncate(n);
        in_cat
    }

    /// Look up a skill by id.
    pub fn get(&self, id: &SkillId) -> Option<&Skill> {
        self.skills
            .iter()
            .chain(self.music_skills.iter())
            .find(|s| &s.id == id)
    }

    /// Look up a skill by display name.
    // Only tests call this today; it carries §4.2's certification-gap
    // claim (EXPERIMENTS.md) until the claim ledger computes it.
    pub fn by_name(&self, name: &str) -> Option<&Skill> {
        self.skills
            .iter()
            .chain(self.music_skills.iter())
            .find(|s| s.name == name)
    }

    /// Register every vendor / content organization this catalog references
    /// into an [`OrgMap`], mirroring the paper's WHOIS/Crunchbase resolution.
    pub fn register_orgs(&self, orgs: &mut OrgMap) {
        for (dom, org) in [
            ("fashioncdn.net", "Fashion CDN"),
            ("petmedia.net", "PetMedia Networks"),
            ("ecosmartlive.net", "EcoSmart Hosting"),
            ("squeakcdn.net", "SqueakCDN"),
            ("soundlibrary.net", "Sound Library"),
            ("cdnstream.net", "CDNStream"),
            ("petwave.net", "PetWave"),
            ("dogtrainingtips.net", "Dog Training Tips Media"),
            ("prayertimes.org", "PrayerTimes.org"),
            ("scripturecdn.net", "Scripture CDN"),
            ("rosarycdn.net", "Rosary CDN"),
            ("graceprayers.net", "Grace Prayers"),
            ("bibletrivia.net", "Bible Trivia Networks"),
            ("airquality.net", "AirQuality Data"),
        ] {
            orgs.register(dom, org);
        }
    }
}

fn is_pinned(name: &str) -> bool {
    PINNED.iter().any(|p| p.name == name)
}

fn slugify(name: &str, cat: SkillCategory) -> String {
    let base: String = name
        .to_ascii_lowercase()
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect();
    let squeezed = base
        .split('-')
        .filter(|p| !p.is_empty())
        .collect::<Vec<_>>()
        .join("-");
    format!("{}-{}", cat.slug(), squeezed)
}

fn skill_from_pin(pin: &Pin) -> Skill {
    let policy = match pin.policy {
        PinPolicy::None => PolicySpec::none(),
        PinPolicy::Broken => PolicySpec {
            has_link: true,
            ..PolicySpec::none()
        },
        PinPolicy::Generic => PolicySpec {
            has_link: true,
            retrievable: true,
            ..PolicySpec::none()
        },
        PinPolicy::Platform { links, amazon } => {
            let mut spec = PolicySpec {
                has_link: true,
                retrievable: true,
                mentions_platform: true,
                links_platform_policy: links,
                ..PolicySpec::none()
            };
            spec.endpoint_disclosures
                .insert(alexa_net::AMAZON.to_string(), amazon);
            spec
        }
    };
    Skill {
        id: SkillId(slugify(pin.name, pin.cat)),
        name: pin.name.to_string(),
        vendor: pin.vendor.to_string(),
        category: pin.cat,
        invocation: pin.name.to_ascii_lowercase(),
        sample_utterances: utterance_pool(pin.cat)
            .iter()
            .map(|s| s.to_string())
            .collect(),
        reviews: pin.reviews,
        streaming: pin.streaming,
        fails_to_load: false,
        requires_account_linking: false,
        permissions: vec![],
        backends: pin
            .backends
            .iter()
            .map(|b| Domain::parse(b).unwrap_or_else(|_| Domain::invalid_sentinel()))
            .collect(),
        collects: vec![],
        policy,
    }
}

/// ~20% of skills request the email permission; a handful location.
fn assign_permissions(skills: &mut [Skill], rng: &mut StdRng) {
    for s in skills.iter_mut() {
        if rng.gen_bool(0.2) {
            s.permissions.push(Permission::Email);
        }
        if s.category == NavigationTripPlanners && rng.gen_bool(0.4) {
            s.permissions.push(Permission::Location);
        }
    }
}

/// Assign collected data types to match Table 13 marginals.
fn assign_data_collection(skills: &mut [Skill], rng: &mut StdRng) {
    let active: Vec<usize> = skills
        .iter()
        .enumerate()
        .filter(|(_, s)| !s.fails_to_load)
        .map(|(i, _)| i)
        .collect();

    // Everyone active sends voice recordings (installing + enabling a skill
    // necessarily involves voice interaction).
    for &i in &active {
        skills[i].collects.push(DataType::VoiceRecording);
    }

    // Targets from Table 13 (counts over the 450-skill catalog).
    let targets: &[(DataType, usize)] = &[
        (DataType::SkillId, 326),
        (DataType::CustomerId, 142),
        (DataType::Language, 18),
        (DataType::Timezone, 18),
        (DataType::Preference, 434),
        (DataType::AudioPlayerEvent, 385),
    ];

    for &(dt, count) in targets {
        let mut pool = active.clone();
        // Skills that talk to third parties always collect persistent IDs
        // (the paper: 8.59% of persistent-ID collectors contact third
        // parties). Put them first so shuffling can't exclude them.
        pool.sort_by_key(|&i| usize::from(skills[i].backends.is_empty()));
        let keep_first = if matches!(dt, DataType::SkillId | DataType::CustomerId) {
            pool.iter()
                .take_while(|&&i| !skills[i].backends.is_empty())
                .count()
        } else {
            0
        };
        pool[keep_first..].shuffle(rng);
        for &i in pool.iter().take(count.min(pool.len())) {
            skills[i].collects.push(dt);
        }
    }
    // Note: DataType::DeviceMetric is deliberately NOT a skill-level
    // collection — device metrics are platform telemetry emitted by the
    // cloud model for a hash-selected subset of sessions (Table 1: 123
    // skills observed contacting device-metrics-us-2.amazon.com).
}

/// Assign privacy-policy ground truth to match §7.1 and Table 13 marginals.
fn assign_policies(skills: &mut [Skill], rng: &mut StdRng) {
    // Pinned skills already carry their documented policy shape. Distribute
    // the remainder over synthetic skills to hit the global marginals:
    // 214 links, 188 retrievable, 59 mention platform, 10 link its policy.
    let have_link = skills.iter().filter(|s| s.policy.has_link).count();
    let have_doc = skills.iter().filter(|s| s.policy.has_document()).count();
    let have_mention = skills.iter().filter(|s| s.policy.mentions_platform).count();
    let have_plat_link = skills
        .iter()
        .filter(|s| s.policy.links_platform_policy)
        .count();

    let mut synth: Vec<usize> = skills
        .iter()
        .enumerate()
        .filter(|(_, s)| !is_pinned(&s.name) && !s.fails_to_load)
        .map(|(i, _)| i)
        .collect();
    synth.shuffle(rng);

    let need_link = 214usize.saturating_sub(have_link);
    let need_doc = 188usize.saturating_sub(have_doc);
    let need_mention = 59usize.saturating_sub(have_mention);
    let need_plat_link = 10usize.saturating_sub(have_plat_link);

    for (k, &i) in synth.iter().take(need_link).enumerate() {
        let s = &mut skills[i];
        s.policy.has_link = true;
        // The first `need_doc` of the linkers are retrievable; the rest are
        // dead links (the paper: 214 links, 188 retrievable).
        if k < need_doc {
            s.policy.retrievable = true;
            if k < need_mention {
                s.policy.mentions_platform = true;
                if k < need_plat_link {
                    s.policy.links_platform_policy = true;
                }
            }
        }
    }

    assign_data_disclosures(skills, rng);
    assign_endpoint_disclosures(skills, rng);
}

/// Per-data-type clear/vague targets from Table 13; everything else omitted.
fn assign_data_disclosures(skills: &mut [Skill], rng: &mut StdRng) {
    let targets: &[(DataType, usize, usize)] = &[
        (DataType::VoiceRecording, 20, 18),
        (DataType::CustomerId, 11, 9),
        (DataType::SkillId, 0, 11),
        (DataType::Language, 0, 3),
        (DataType::Timezone, 0, 3),
        (DataType::Preference, 0, 40),
        (DataType::AudioPlayerEvent, 0, 60),
    ];
    for &(dt, clear_n, vague_n) in targets {
        let mut holders: Vec<usize> = skills
            .iter()
            .enumerate()
            .filter(|(_, s)| s.policy.has_document() && s.collects_type(dt))
            .map(|(i, _)| i)
            .collect();
        holders.shuffle(rng);
        for (k, &i) in holders.iter().enumerate() {
            let level = if k < clear_n {
                DisclosureLevel::Clear
            } else if k < clear_n + vague_n {
                DisclosureLevel::Vague
            } else {
                DisclosureLevel::Omitted
            };
            skills[i].policy.data_disclosures.insert(dt, level);
        }
    }

    // A handful of policies actively LIE: they deny collecting voice
    // recordings while their traffic shows them (PoliCheck's "incorrect"
    // class; the original tool found such contradictions in mobile apps).
    let mut deniers: Vec<usize> = skills
        .iter()
        .enumerate()
        .filter(|(_, s)| {
            s.policy.has_document()
                && s.collects_type(DataType::VoiceRecording)
                && s.policy.data_disclosures.get(&DataType::VoiceRecording)
                    == Some(&DisclosureLevel::Omitted)
        })
        .map(|(i, _)| i)
        .collect();
    deniers.shuffle(rng);
    for &i in deniers.iter().take(6) {
        skills[i]
            .policy
            .data_disclosures
            .insert(DataType::VoiceRecording, DisclosureLevel::Denied);
    }
}

/// Endpoint disclosure ground truth (§7.2.1): 10 clear / 136 vague about
/// Amazon; Garmin & YouVersion clear about their own orgs; a few skills
/// vague about third parties, the rest omitted.
fn assign_endpoint_disclosures(skills: &mut [Skill], rng: &mut StdRng) {
    use alexa_net::AMAZON;
    // Pinned Platform{..} skills already disclose Amazon. Count them.
    let have_clear = skills
        .iter()
        .filter(|s| s.policy.endpoint_disclosures.get(AMAZON) == Some(&DisclosureLevel::Clear))
        .count();
    let have_vague = skills
        .iter()
        .filter(|s| s.policy.endpoint_disclosures.get(AMAZON) == Some(&DisclosureLevel::Vague))
        .count();

    // Clear Amazon disclosures name Amazon in the rendered text, so they
    // must come from policies that mention the platform at all (the 59 of
    // §7.1) — otherwise the mention count would drift upward. Vague
    // disclosures use category phrases ("analytics tool", "voice partner")
    // that never name Amazon, so any document qualifies.
    let mut mentioners: Vec<usize> = skills
        .iter()
        .enumerate()
        .filter(|(_, s)| {
            s.policy.has_document()
                && s.policy.mentions_platform
                && !s.policy.endpoint_disclosures.contains_key(AMAZON)
        })
        .map(|(i, _)| i)
        .collect();
    mentioners.shuffle(rng);
    let need_clear = 10usize.saturating_sub(have_clear);
    for &i in mentioners.iter().take(need_clear) {
        skills[i]
            .policy
            .endpoint_disclosures
            .insert(AMAZON.to_string(), DisclosureLevel::Clear);
    }

    let mut doc_holders: Vec<usize> = skills
        .iter()
        .enumerate()
        .filter(|(_, s)| {
            s.policy.has_document() && !s.policy.endpoint_disclosures.contains_key(AMAZON)
        })
        .map(|(i, _)| i)
        .collect();
    doc_holders.shuffle(rng);
    let need_vague = 136usize.saturating_sub(have_vague);
    for (k, &i) in doc_holders.iter().enumerate() {
        let level = if k < need_vague {
            DisclosureLevel::Vague
        } else {
            DisclosureLevel::Omitted
        };
        skills[i]
            .policy
            .endpoint_disclosures
            .insert(AMAZON.to_string(), level);
    }

    // First-party disclosures: Garmin and the YouVersion skills clearly name
    // their own organizations (§7.2.1).
    for name in ["Garmin", "YouVersion Bible"] {
        if let Some(s) = skills.iter_mut().find(|s| s.name == name) {
            let vendor = s.vendor.clone();
            s.policy
                .endpoint_disclosures
                .insert(vendor, DisclosureLevel::Clear);
        }
    }

    // Third-party disclosures: Charles Stanley Radio and VCA use vague
    // blanket terms; every other document omits its third parties.
    for skill in skills.iter_mut() {
        if !skill.policy.has_document() {
            continue;
        }
        let orgs: Vec<String> = skill
            .backends
            .iter()
            .filter_map(|b| third_party_org(b, &skill.vendor))
            .collect();
        let vague_all = matches!(
            skill.name.as_str(),
            "Charles Stanley Radio" | "VCA Animal Hospitals"
        );
        for org in orgs {
            let level = if vague_all {
                DisclosureLevel::Vague
            } else {
                DisclosureLevel::Omitted
            };
            skill
                .policy
                .endpoint_disclosures
                .entry(org)
                .or_insert(level);
        }
    }
    let _ = rng;
}

/// Resolve a backend's organization unless it belongs to the skill's vendor.
fn third_party_org(backend: &Domain, vendor: &str) -> Option<String> {
    let orgs = OrgMap::new();
    let org = orgs.org_of(backend).map(str::to_string).unwrap_or_else(|| {
        backend
            .registrable()
            .map(|d| d.as_str().to_string())
            .unwrap_or_default()
    });
    if org == vendor {
        None
    } else {
        Some(org)
    }
}

/// The three audio-streaming skills of the audio-ad experiment (§3.3).
fn music_catalog() -> Vec<Skill> {
    let mk = |name: &str, vendor: &str, id: &str| Skill {
        id: SkillId(id.to_string()),
        name: name.to_string(),
        vendor: vendor.to_string(),
        category: SkillCategory::SmartHome, // placeholder; not part of the 9-category study
        invocation: name.to_ascii_lowercase(),
        sample_utterances: vec!["play top hits".to_string()],
        reviews: 10_000,
        streaming: true,
        fails_to_load: false,
        requires_account_linking: false,
        permissions: vec![],
        backends: vec![],
        collects: vec![
            DataType::VoiceRecording,
            DataType::AudioPlayerEvent,
            DataType::CustomerId,
        ],
        policy: PolicySpec {
            has_link: true,
            retrievable: true,
            mentions_platform: true,
            links_platform_policy: false,
            ..PolicySpec::none()
        },
    };
    vec![
        mk(
            "Amazon Music",
            "Amazon Technologies, Inc.",
            "music-amazon-music",
        ),
        mk("Spotify", "Spotify AB", "music-spotify"),
        mk("Pandora", "Pandora Media, LLC", "music-pandora"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn market() -> Marketplace {
        Marketplace::generate(42)
    }

    #[test]
    fn catalog_has_450_skills() {
        let m = market();
        assert_eq!(m.all().len(), 450);
        for cat in SkillCategory::ALL {
            assert_eq!(
                m.all().iter().filter(|s| s.category == cat).count(),
                SKILLS_PER_CATEGORY,
                "category {cat}"
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Marketplace::generate(7);
        let b = Marketplace::generate(7);
        for (x, y) in a.all().iter().zip(b.all()) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.collects, y.collects);
            assert_eq!(x.policy, y.policy);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = Marketplace::generate(1);
        let b = Marketplace::generate(2);
        let fails_a: Vec<&str> = a
            .all()
            .iter()
            .filter(|s| s.fails_to_load)
            .map(|s| s.name.as_str())
            .collect();
        let fails_b: Vec<&str> = b
            .all()
            .iter()
            .filter(|s| s.fails_to_load)
            .map(|s| s.name.as_str())
            .collect();
        assert_ne!(fails_a, fails_b);
    }

    #[test]
    fn exactly_four_skills_fail_to_load() {
        let m = market();
        assert_eq!(m.all().iter().filter(|s| s.fails_to_load).count(), 4);
        // Pinned skills never fail.
        assert!(m
            .all()
            .iter()
            .filter(|s| s.fails_to_load)
            .all(|s| s.backends.is_empty()));
    }

    #[test]
    fn table13_marginals() {
        let m = market();
        let count = |dt: DataType| m.all().iter().filter(|s| s.collects_type(dt)).count();
        assert_eq!(count(DataType::SkillId), 326);
        assert_eq!(count(DataType::CustomerId), 142);
        assert_eq!(count(DataType::Preference), 434);
        assert_eq!(count(DataType::AudioPlayerEvent), 385);
        assert_eq!(count(DataType::Language), 18);
        assert_eq!(count(DataType::VoiceRecording), 446);
    }

    #[test]
    fn policy_marginals() {
        let m = market();
        let links = m.all().iter().filter(|s| s.policy.has_link).count();
        let docs = m.all().iter().filter(|s| s.policy.has_document()).count();
        let mentions = m
            .all()
            .iter()
            .filter(|s| s.policy.mentions_platform)
            .count();
        let plat_links = m
            .all()
            .iter()
            .filter(|s| s.policy.links_platform_policy)
            .count();
        assert_eq!(links, 214);
        assert_eq!(docs, 188);
        assert_eq!(mentions, 59);
        assert_eq!(plat_links, 10);
    }

    #[test]
    fn only_garmin_and_youversion_have_vendor_domains() {
        let m = market();
        let orgs = {
            let mut o = OrgMap::new();
            m.register_orgs(&mut o);
            o
        };
        let mut vendor_skills: Vec<&str> = m
            .all()
            .iter()
            .filter(|s| {
                s.backends
                    .iter()
                    .any(|b| orgs.org_of(b).map(|org| org == s.vendor).unwrap_or(false))
            })
            .map(|s| s.name.as_str())
            .collect();
        vendor_skills.sort();
        assert_eq!(
            vendor_skills,
            vec!["Garmin", "Lords Prayer", "YouVersion Bible"]
        );
    }

    #[test]
    fn top_skills_sorted_by_reviews() {
        let m = market();
        let top = m.top_skills(SkillCategory::ConnectedCar, 50);
        assert_eq!(top.len(), 50);
        for w in top.windows(2) {
            assert!(w[0].reviews >= w[1].reviews);
        }
        // Garmin (2143 reviews) must rank first in Connected Car.
        assert_eq!(top[0].name, "Garmin");
    }

    #[test]
    fn pinned_skills_present_with_backends() {
        let m = market();
        let garmin = m.by_name("Garmin").unwrap();
        assert_eq!(garmin.backends.len(), 5);
        assert!(garmin.streaming);
        let makeup = m.by_name("Makeup of the Day").unwrap();
        assert!(makeup.backends.iter().any(|b| b.as_str() == "chtbl.com"));
    }

    #[test]
    fn music_skills_are_streaming() {
        let m = market();
        assert_eq!(m.music_skills().len(), 3);
        assert!(m.music_skills().iter().all(|s| s.streaming));
        assert!(m.by_name("Spotify").is_some());
    }

    #[test]
    fn ids_are_unique() {
        let m = market();
        let mut ids: Vec<&str> = m.all().iter().map(|s| s.id.0.as_str()).collect();
        ids.sort();
        let before = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), before);
    }

    #[test]
    fn smart_home_wine_navigation_have_no_third_party_backends() {
        // §6.2: these personas contact no non-Amazon services.
        let m = market();
        for cat in [SmartHome, WineBeverages, NavigationTripPlanners] {
            assert!(
                m.all()
                    .iter()
                    .filter(|s| s.category == cat)
                    .all(|s| s.backends.is_empty()),
                "{cat}"
            );
        }
    }

    #[test]
    fn third_party_contacting_skills_collect_persistent_ids() {
        let m = market();
        let orgs = OrgMap::new();
        for s in m.all().iter().filter(|s| {
            s.backends.iter().any(|b| {
                orgs.org_of(b)
                    .map(|o| o != s.vendor && o != alexa_net::AMAZON)
                    .unwrap_or(true)
            })
        }) {
            assert!(
                s.collects_type(DataType::SkillId),
                "{} should collect skill id",
                s.name
            );
        }
    }

    #[test]
    fn irobot_requires_account_linking() {
        let m = market();
        assert!(m.by_name("iRobot Home").unwrap().requires_account_linking);
    }

    #[test]
    fn six_nonstreaming_skills_embed_ad_services() {
        // §4.2: six non-streaming skills contact A&T services — a potential
        // Alexa advertising-policy violation.
        let m = market();
        let fl = alexa_net::FilterList::new();
        let violators: Vec<&str> = m
            .all()
            .iter()
            .filter(|s| !s.streaming && s.backends.iter().any(|b| fl.is_ad_tracking(b)))
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(violators.len(), 6, "violators: {violators:?}");
    }
}
