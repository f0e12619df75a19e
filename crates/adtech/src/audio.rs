//! Audio advertising on streaming skills.
//!
//! §3.3/§5.4: the paper streams six hours of top-hit music per skill
//! (Amazon Music, Spotify, Pandora) per persona (Connected Car, Fashion &
//! Style, vanilla), records the audio in insulated rooms, transcribes it,
//! and manually extracts ads from the transcripts (289 ads total). The
//! planted ground truth reproduces the paper's findings:
//!
//! * ad load differs by persona on the same service (advertiser interest):
//!   Spotify streams a *fifth* as many ads to Connected Car as to the other
//!   personas (Table 9);
//! * some brands are persona-exclusive (Ashley and Ross on Spotify, Swiffer
//!   Wet Jet on Pandora — all for Fashion & Style; Febreeze Car on Pandora
//!   for Connected Car);
//! * Burlington and Kohl's skew heavily toward Fashion & Style on Pandora;
//! * ~16.6% of Amazon Music / Spotify ads are self-promotion (premium
//!   upsell).

use alexa_platform::SkillCategory;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The three audio-streaming skills of the experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StreamingService {
    /// Amazon Music (the platform operator's own service).
    AmazonMusic,
    /// Spotify.
    Spotify,
    /// Pandora.
    Pandora,
}

impl StreamingService {
    /// All services in Table 9 column order.
    pub const ALL: [StreamingService; 3] = [
        StreamingService::AmazonMusic,
        StreamingService::Spotify,
        StreamingService::Pandora,
    ];

    /// Display name.
    pub fn label(self) -> &'static str {
        match self {
            StreamingService::AmazonMusic => "Amazon Music",
            StreamingService::Spotify => "Spotify",
            StreamingService::Pandora => "Pandora",
        }
    }
}

impl std::fmt::Display for StreamingService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The audio-ad experiment's persona axis: two interest personas and the
/// vanilla control (`None`).
pub type AudioPersona = Option<SkillCategory>;

/// One event in a streaming session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AudioEvent {
    /// A song plays (title).
    Song(String),
    /// An ad break plays (brand, full spoken script).
    Ad {
        /// Advertiser brand.
        brand: String,
        /// The spoken ad script (what ends up in the recording).
        script: String,
    },
}

/// A recorded streaming session.
#[derive(Debug, Clone)]
pub struct StreamingSession {
    /// Service streamed.
    pub service: StreamingService,
    /// Session length in hours.
    pub hours: f64,
    /// Ordered events.
    pub events: Vec<AudioEvent>,
}

/// Expected ad count for a 6-hour session (calibrated to Table 9's counts:
/// Amazon Music 31/32/30, Spotify 8/45/36, Pandora 28/47/32 for Connected
/// Car / Fashion & Style / vanilla).
fn target_ads_per_6h(service: StreamingService, persona: AudioPersona) -> usize {
    use SkillCategory::{ConnectedCar, FashionStyle};
    match (service, persona) {
        (StreamingService::AmazonMusic, Some(ConnectedCar)) => 31,
        (StreamingService::AmazonMusic, Some(FashionStyle)) => 32,
        (StreamingService::AmazonMusic, _) => 30,
        (StreamingService::Spotify, Some(ConnectedCar)) => 8,
        (StreamingService::Spotify, Some(FashionStyle)) => 45,
        (StreamingService::Spotify, _) => 36,
        (StreamingService::Pandora, Some(ConnectedCar)) => 28,
        (StreamingService::Pandora, Some(FashionStyle)) => 47,
        (StreamingService::Pandora, _) => 32,
    }
}

/// Brand pool entry: (brand, weight for Connected Car, Fashion & Style,
/// vanilla). Weight 0 = never shown to that persona.
type BrandRow = (&'static str, f64, f64, f64);

fn brand_pool(service: StreamingService) -> &'static [BrandRow] {
    match service {
        StreamingService::AmazonMusic => &[
            ("Amazon Music Unlimited", 5.0, 5.0, 5.0), // self-promotion
            ("GEICO", 3.0, 3.0, 3.0),
            ("McDonald's", 3.0, 3.0, 3.0),
            ("T-Mobile", 2.0, 2.0, 2.0),
            ("Coca-Cola", 2.0, 2.0, 2.0),
            ("Home Depot", 2.0, 2.0, 2.0),
            ("Walgreens", 1.5, 1.5, 1.5),
        ],
        StreamingService::Spotify => &[
            ("Spotify Premium", 5.0, 5.0, 5.0), // self-promotion
            ("Ashley", 0.0, 3.0, 0.0),          // Fashion & Style exclusive
            ("Ross", 0.0, 3.0, 0.0),            // Fashion & Style exclusive
            ("Samsung", 2.0, 2.0, 2.0),
            ("State Farm", 2.0, 2.0, 2.0),
            ("Dunkin", 1.5, 1.5, 1.5),
            ("Uber", 1.0, 1.0, 1.0),
        ],
        StreamingService::Pandora => &[
            ("Swiffer Wet Jet", 0.0, 2.5, 0.0), // Fashion & Style exclusive
            ("Febreeze Car", 2.0, 0.0, 0.0),    // Connected Car exclusive
            ("Burlington", 0.5, 4.0, 0.7),      // heavily FS-skewed
            ("Kohl's", 0.5, 4.0, 0.7),          // heavily FS-skewed
            ("Taco Bell", 2.0, 2.0, 2.0),
            ("AT&T", 2.0, 2.0, 2.0),
            ("Liberty Mutual", 1.5, 1.5, 1.5),
        ],
    }
}

fn persona_weight(row: &BrandRow, persona: AudioPersona) -> f64 {
    match persona {
        Some(SkillCategory::ConnectedCar) => row.1,
        Some(SkillCategory::FashionStyle) => row.2,
        _ => row.3,
    }
}

const SONG_TITLES: &[&str] = &[
    "Midnight Drive",
    "Golden Hour",
    "Paper Hearts",
    "Neon Skyline",
    "Wildflower",
    "Gravity Falls",
    "Silver Lining",
    "Echo Chamber",
    "Summer Static",
    "Violet Rain",
];

/// Simulate one recorded streaming session.
pub fn simulate_session(
    service: StreamingService,
    persona: AudioPersona,
    hours: f64,
    seed: u64,
) -> StreamingSession {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x617564696f);
    let target = (target_ads_per_6h(service, persona) as f64 * hours / 6.0).round() as usize;
    // Songs: one every ~3.5 minutes.
    let songs = (hours * 60.0 / 3.5).round() as usize;
    let pool = brand_pool(service);
    let total_w: f64 = pool.iter().map(|r| persona_weight(r, persona)).sum();

    let mut events = Vec::with_capacity(songs + target);
    // Distribute ad breaks uniformly between songs.
    let every = if target > 0 {
        songs.max(1) / target.max(1)
    } else {
        usize::MAX
    };
    let mut ads_placed = 0usize;
    for i in 0..songs {
        let title = SONG_TITLES.get(rng.gen_range(0..SONG_TITLES.len()));
        events.push(AudioEvent::Song(
            title.copied().unwrap_or_default().to_string(),
        ));
        if ads_placed < target && every != usize::MAX && (i + 1) % every.max(1) == 0 {
            // Weighted brand choice.
            let mut pick = rng.gen_range(0.0..total_w);
            let mut brand = pool.last().map_or("", |row| row.0);
            for row in pool {
                let w = persona_weight(row, persona);
                if pick < w {
                    brand = row.0;
                    break;
                }
                pick -= w;
            }
            let script = format!(
                "{brand}. Shop now at {} dot com. Limited time offer, terms apply.",
                brand.to_ascii_lowercase().replace([' ', '\''], "")
            );
            events.push(AudioEvent::Ad {
                brand: brand.to_string(),
                script,
            });
            ads_placed += 1;
        }
    }
    StreamingSession {
        service,
        hours,
        events,
    }
}

impl StreamingSession {
    /// Number of ad events in the session (ground truth).
    pub fn ad_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, AudioEvent::Ad { .. }))
            .count()
    }
}

/// Speech-to-text with a word-error model (the paper transcribed recordings
/// with Adobe Premiere Pro and then manually cleaned them).
#[derive(Debug, Clone, Copy)]
pub struct Transcriber {
    /// Word error rate.
    pub wer: f64,
}

impl Default for Transcriber {
    fn default() -> Transcriber {
        Transcriber { wer: 0.03 }
    }
}

impl Transcriber {
    /// Transcribe a session into one line of text per event.
    pub fn transcribe(&self, session: &StreamingSession, seed: u64) -> Vec<String> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x747478);
        session
            .events
            .iter()
            .map(|e| {
                let text = match e {
                    AudioEvent::Song(title) => format!("la la {title} ooh yeah {title}"),
                    AudioEvent::Ad { script, .. } => script.clone(),
                };
                text.split_whitespace()
                    .map(|w| {
                        if rng.gen_bool(self.wer) {
                            "[inaudible]".to_string()
                        } else {
                            w.to_string()
                        }
                    })
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .collect()
    }
}

/// Extracts ads from transcripts — the automated stand-in for the paper's
/// human coder, keyed on promotional phrases.
#[derive(Debug, Clone, Copy, Default)]
pub struct AudioAdExtractor;

/// Phrases that mark a transcript line as an advertisement.
const AD_MARKERS: &[&str] = &["shop now at", "limited time offer", "terms apply"];

impl AudioAdExtractor {
    /// Create an extractor.
    pub fn new() -> AudioAdExtractor {
        AudioAdExtractor
    }

    /// Extract advertised brands from transcript lines. The brand is the
    /// leading sentence of the ad script.
    pub fn extract(&self, transcripts: &[String]) -> Vec<String> {
        transcripts
            .iter()
            .filter(|line| {
                let lower = line.to_ascii_lowercase();
                AD_MARKERS.iter().any(|m| lower.contains(m))
            })
            .filter_map(|line| line.split('.').next().map(|brand| brand.trim().to_string()))
            .filter(|b| !b.is_empty() && !b.contains("[inaudible]"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use SkillCategory::{ConnectedCar, FashionStyle};

    #[test]
    fn six_hour_sessions_hit_table9_counts() {
        for service in StreamingService::ALL {
            for persona in [Some(ConnectedCar), Some(FashionStyle), None] {
                let s = simulate_session(service, persona, 6.0, 1);
                let want = target_ads_per_6h(service, persona);
                assert_eq!(s.ad_count(), want, "{service} {persona:?}");
            }
        }
    }

    #[test]
    fn spotify_starves_connected_car() {
        let cc = simulate_session(StreamingService::Spotify, Some(ConnectedCar), 6.0, 2);
        let fs = simulate_session(StreamingService::Spotify, Some(FashionStyle), 6.0, 2);
        assert!(
            cc.ad_count() * 5 <= fs.ad_count(),
            "{} vs {}",
            cc.ad_count(),
            fs.ad_count()
        );
    }

    #[test]
    fn exclusive_brands_respect_personas() {
        let brands = |persona| {
            let s = simulate_session(StreamingService::Pandora, persona, 60.0, 3);
            s.events
                .iter()
                .filter_map(|e| match e {
                    AudioEvent::Ad { brand, .. } => Some(brand.clone()),
                    _ => None,
                })
                .collect::<std::collections::BTreeSet<_>>()
        };
        let fs = brands(Some(FashionStyle));
        let cc = brands(Some(ConnectedCar));
        let v = brands(None);
        assert!(fs.contains("Swiffer Wet Jet"));
        assert!(!cc.contains("Swiffer Wet Jet"));
        assert!(!v.contains("Swiffer Wet Jet"));
        assert!(cc.contains("Febreeze Car"));
        assert!(!fs.contains("Febreeze Car"));
    }

    #[test]
    fn transcription_preserves_most_words() {
        let s = simulate_session(StreamingService::AmazonMusic, None, 6.0, 4);
        let t = Transcriber::default().transcribe(&s, 4);
        assert_eq!(t.len(), s.events.len());
        let garbled: usize = t.iter().map(|l| l.matches("[inaudible]").count()).sum();
        let total: usize = t.iter().map(|l| l.split_whitespace().count()).sum();
        assert!((garbled as f64) < 0.08 * total as f64);
    }

    #[test]
    fn extractor_recovers_most_ads() {
        let s = simulate_session(StreamingService::Pandora, Some(FashionStyle), 6.0, 5);
        let transcripts = Transcriber::default().transcribe(&s, 5);
        let ads = AudioAdExtractor::new().extract(&transcripts);
        let truth = s.ad_count();
        assert!(
            ads.len() >= truth * 8 / 10,
            "extracted {} of {truth}",
            ads.len()
        );
        assert!(ads.len() <= truth);
    }

    #[test]
    fn extractor_ignores_songs() {
        let session = StreamingSession {
            service: StreamingService::Spotify,
            hours: 0.1,
            events: vec![AudioEvent::Song("Paper Hearts".into())],
        };
        let transcripts = Transcriber { wer: 0.0 }.transcribe(&session, 1);
        assert!(AudioAdExtractor::new().extract(&transcripts).is_empty());
    }

    #[test]
    fn self_promotion_share_noticeable() {
        let s = simulate_session(StreamingService::Spotify, None, 60.0, 6);
        let ads: Vec<&str> = s
            .events
            .iter()
            .filter_map(|e| match e {
                AudioEvent::Ad { brand, .. } => Some(brand.as_str()),
                _ => None,
            })
            .collect();
        let promo = ads.iter().filter(|b| **b == "Spotify Premium").count();
        let share = promo as f64 / ads.len() as f64;
        assert!((0.1..0.5).contains(&share), "self-promo share {share}");
    }

    #[test]
    fn sessions_are_deterministic() {
        let a = simulate_session(StreamingService::Pandora, None, 6.0, 7);
        let b = simulate_session(StreamingService::Pandora, None, 6.0, 7);
        assert_eq!(a.events, b.events);
    }
}
