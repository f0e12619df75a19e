//! Network substrate for the `echoaudit` workspace.
//!
//! The paper observes the Echo ecosystem from two network vantage points:
//!
//! * a **RPi bridged-AP router** running `tcpdump`, which sees every flow the
//!   commercial Echo produces but only as *encrypted* traffic — endpoints,
//!   DNS lookups, timing and sizes;
//! * an instrumented **AVS Echo** (the AVS Device SDK on a RPi), which logs
//!   every payload *before* encryption — full data types — but, being
//!   uncertified, only ever talks to Amazon and cannot run streaming skills.
//!
//! This crate models everything both vantage points operate on: validated
//! [`Domain`] names with eTLD+1 extraction, a deterministic [`DnsTable`],
//! typed [`Packet`]s whose payloads are either opaque ([`Payload::Encrypted`])
//! or structured ([`Payload::Plain`]), the capture [`Tap`] at either
//! [`Vantage`], a domain→organization map ([`OrgMap`]) equivalent to the
//! paper's DuckDuckGo-entity + Crunchbase + WHOIS resolution, and a
//! Pi-hole-style [`FilterList`] for advertising & tracking classification.
//!
//! It also owns the workspace's one interner, [`Label`]. The tap sees the
//! same few dozen endpoints again and again, so a [`Domain`] is a 4-byte
//! label, `Copy`, ordered by its text; the crawl's slot ids, organizations,
//! cookie values, sites and creatives are labels from the same table.

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![deny(clippy::indexing_slicing)]
#![warn(missing_docs)]

mod capture;
mod dns;
mod domain;
mod filterlist;
mod firewall;
mod flowstats;
mod label;
mod orgmap;
mod packet;
mod trace;

pub use capture::{Capture, Tap, TapStats, Vantage};
pub use dns::DnsTable;
pub use domain::Domain;
pub use filterlist::{FilterList, TrafficPurpose};
pub use firewall::{Firewall, FirewallStats, Verdict};
pub use flowstats::{aggregate as aggregate_flows, top_by_bytes, FlowStats};
pub use label::Label;
pub use orgmap::{OrgClass, OrgMap, AMAZON};
pub use packet::{DataType, Direction, Packet, Payload, Record};
pub use trace::{read_trace, write_trace, TraceError};
