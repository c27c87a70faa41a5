//! Prints `docs/METRICS.md`, the rendered metric catalogue:
//!
//! ```sh
//! cargo run -p cludistream-obs --example metrics_md > docs/METRICS.md
//! ```

fn main() {
    print!("{}", cludistream_obs::catalogue::render_markdown());
}
