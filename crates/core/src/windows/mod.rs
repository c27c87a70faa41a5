//! Window semantics over a remote site's model list and event table
//! (paper Sec. 6.2 and Sec. 7): landmark windows, horizon (recent-chunk)
//! queries, and sliding windows with deletion.

mod horizon;
mod landmark;
mod sliding;
mod window;

pub use horizon::horizon_mixture;
pub use landmark::landmark_mixture;
pub use sliding::SlidingWindowSite;
pub use window::WindowSpec;
pub(crate) use window::Window;
