//! Misactivation study: how often does the device wake — and record — when
//! nobody said the wake word?
//!
//! The paper motivates its audit partly with prior work showing smart
//! speakers "often misactivate and unintentionally record conversations"
//! (Dubois et al., PETS '20). The simulated voice pipeline carries that
//! misactivation process; this example measures it the way that prior work
//! did: play scripted non-wake-word audio at the device and count
//! recordings.
//!
//! ```sh
//! cargo run --release --example misactivations
//! ```

use alexa_platform::{VoiceConfig, VoicePipeline};

const CONVERSATION: &[&str] = &[
    "I let Sarah borrow the car on Tuesday",
    "election results are coming in tonight",
    "alexander the great founded many cities",
    "can you pass the salt please",
    "the flex on that beam looks wrong to me",
    "I'm excited about the new season",
    "let's set the table for dinner",
    "unacceptable, they said, completely unacceptable",
];

fn main() {
    let hours = 24;
    let phrases_per_hour = 120; // a lively household
    let mut pipeline = VoicePipeline::new(7);

    let mut activations = 0u32;
    let mut by_phrase = vec![0u32; CONVERSATION.len()];
    for _hour in 0..hours {
        for i in 0..phrases_per_hour {
            let phrase = CONVERSATION[i % CONVERSATION.len()];
            if pipeline.wakes(phrase) {
                activations += 1;
                by_phrase[i % CONVERSATION.len()] += 1;
            }
        }
    }

    let total = hours * phrases_per_hour;
    println!("Simulated {hours} h of household conversation ({total} phrases).");
    println!(
        "Misactivations: {activations} ({:.2}% of phrases, {:.1} per hour)\n",
        100.0 * activations as f64 / total as f64,
        activations as f64 / hours as f64
    );
    println!("Per-phrase breakdown:");
    for (phrase, n) in CONVERSATION.iter().zip(&by_phrase) {
        println!("  {n:>3}  {phrase:?}");
    }

    // What a stricter wake-word model would buy.
    let mut strict = VoicePipeline::with_config(
        7,
        VoiceConfig {
            misactivation_rate: 0.001,
            ..VoiceConfig::default()
        },
    );
    let strict_activations = (0..total)
        .filter(|i| strict.wakes(CONVERSATION[*i % CONVERSATION.len()]))
        .count();
    println!(
        "\nWith a 10x better wake-word model: {strict_activations} misactivations \
         ({:.2}%).",
        100.0 * strict_activations as f64 / total as f64
    );
    println!(
        "Every misactivation ships a voice recording upstream — each one is a\n\
         private-conversation leak the paper's §2.2 warns about."
    );
}
