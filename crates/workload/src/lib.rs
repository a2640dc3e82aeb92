#![warn(missing_docs)]

//! Workload generators reproducing the paper's evaluation pages (§6.2) —
//! the Wikimedia "Landscape" search-results page (49 images, 1.4 MB), the
//! newspaper article (2400 B → 778 B, 3.1×), and the §2.1 travel-blog
//! example — plus the million-user small-world traffic subsystem: a
//! seeded Watts–Strogatz site graph whose pages carry recipes
//! ([`graph`]), Zipf page popularity ([`popularity`]), random-walk user
//! sessions with restart over heterogeneous client profiles
//! ([`session`]), diurnal arrivals ([`arrival`]), a deterministic trace
//! ([`trace`]), and a replay harness with an SLO scorecard ([`replay`],
//! [`scorecard`]).

pub mod arrival;
pub mod article;
pub mod blog;
mod fnv;
pub mod graph;
pub mod media_classes;
pub mod popularity;
pub mod replay;
pub mod scorecard;
pub mod session;
pub mod stock;
pub mod trace;
pub mod wikimedia;

pub use article::news_article;
pub use blog::travel_blog;
pub use graph::{SiteGraph, SmallWorldConfig};
pub use trace::{Trace, WorkloadConfig};
pub use wikimedia::landscape_search_page;
