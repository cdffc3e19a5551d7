//! Seeded workload inputs: the dirty tables the program fits, and the
//! request bodies and append deltas the serving workloads send. The seed
//! drives table generation, the MCAR masks, request sizes and request
//! order; the program only ever sees the generated CSV.

use grimp_datasets::{generate, generate_large, DatasetId};
use grimp_table::csv::{read_csv_str, to_csv_string};
use grimp_table::{inject_mcar, ColumnKind, CorruptionLog, Table, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// MCAR rate of the Adult-shaped table (fit_full and both serving workloads).
const ADULT_RATE: f64 = 0.2;
/// Rows of the `generate_large` table fitted by fit_sampled.
const LARGE_ROWS: usize = 200_000;
/// MCAR rate of the large table.
const LARGE_RATE: f64 = 0.05;
/// Leading rows of the Adult dirty table the served model is fitted on;
/// the remaining rows feed request bodies and append deltas.
pub const SERVED_ROWS: usize = 2000;
/// Request body sizes are drawn uniformly from this continuous range, so
/// no latency percentile sits between two size modes.
const BODY_ROWS: std::ops::RangeInclusive<usize> = 8..=72;
/// Rows per `POST /append` delta.
pub const DELTA_ROWS: usize = 16;
/// Requests in the fixed probe set scored after the last append.
const PROBE_REQUESTS: usize = 8;
/// Rows per probe request.
const PROBE_ROWS: usize = 64;

/// Salts that keep the mask and request streams independent of the
/// generator's own use of the seed.
const MASK_SALT: u64 = 0x6d61_736b;
const REQUEST_SALT: u64 = 0x7265_7173;

/// One corrupted table: the clean truth, the injected cells, and the dirty
/// table as the user's CSV file and as the program parses it.
pub struct Instance {
    pub clean: Table,
    pub log: CorruptionLog,
    pub csv: String,
    pub dirty: Table,
}

/// The Adult-shaped table (3016 rows × 14 columns) with 20 % MCAR.
pub fn adult(seed: u64) -> Instance {
    corrupt(generate(DatasetId::Adult, seed).table, ADULT_RATE, seed)
}

/// The 5-column scaling table at [`LARGE_ROWS`] rows with 5 % MCAR.
pub fn large(seed: u64) -> Instance {
    corrupt(generate_large(LARGE_ROWS, seed).table, LARGE_RATE, seed)
}

fn corrupt(clean: Table, rate: f64, seed: u64) -> Instance {
    let mut dirty = clean.clone();
    let log = inject_mcar(
        &mut dirty,
        rate,
        &mut StdRng::seed_from_u64(seed ^ MASK_SALT),
    );
    let csv = to_csv_string(&dirty);
    let dirty = read_csv_str(&csv).expect("the generated CSV parses");
    assert_eq!(
        dirty.schema(),
        clean.schema(),
        "the CSV round trip must keep every column's kind"
    );
    Instance {
        clean,
        log,
        csv,
        dirty,
    }
}

/// A request or delta body: the CSV sent, the table the server parses from
/// it, and the rows of the full dirty table it carries.
pub struct Body {
    pub csv: String,
    pub table: Table,
    pub rows: Vec<usize>,
}

impl Body {
    fn new(dirty: &Table, rows: Vec<usize>) -> Body {
        let mut sub = Table::empty(dirty.schema().clone());
        for &i in &rows {
            let cells: Vec<Option<String>> = (0..dirty.n_columns())
                .map(|j| (!dirty.is_missing(i, j)).then(|| dirty.display(i, j)))
                .collect();
            let refs: Vec<Option<&str>> = cells.iter().map(|c| c.as_deref()).collect();
            sub.push_str_row(&refs);
        }
        let csv = to_csv_string(&sub);
        let table = read_csv_str(&csv).expect("a generated body parses");
        Body { csv, table, rows }
    }
}

/// Everything the serving workloads send, fixed before the server starts.
pub struct ServeInputs {
    /// The operator's training CSV: the first [`SERVED_ROWS`] dirty rows.
    pub served_csv: String,
    pub served: Table,
    /// `/impute` bodies in send order (cycled if a run sends more).
    pub requests: Vec<Body>,
    /// `/append` deltas in send order: disjoint from every impute body and
    /// free of categorical values the served table has not seen.
    pub deltas: Vec<Body>,
    /// The fixed probe set scored after the last append.
    pub probes: Vec<Body>,
}

/// Build the serving inputs from the Adult instance.
pub fn serve_inputs(inst: &Instance, seed: u64, n_requests: usize, n_deltas: usize) -> ServeInputs {
    let dirty = &inst.dirty;
    let served_csv = to_csv_string(&dirty.head(SERVED_ROWS));
    let served = read_csv_str(&served_csv).expect("the served CSV parses");
    let known = |i: usize| {
        (0..dirty.n_columns()).all(|j| {
            dirty.schema().column(j).kind != ColumnKind::Categorical
                || dirty.is_missing(i, j)
                || served.dictionary(j).contains(&dirty.display(i, j))
        })
    };
    // Deltas come from the tail of the held-out rows, impute bodies from
    // the rest, so no appended row is ever also imputed.
    let mut delta_rows = Vec::with_capacity(n_deltas * DELTA_ROWS);
    let mut cut = dirty.n_rows();
    while delta_rows.len() < n_deltas * DELTA_ROWS {
        cut -= 1;
        assert!(cut > SERVED_ROWS, "not enough held-out rows for the deltas");
        if known(cut) {
            delta_rows.push(cut);
        }
    }
    delta_rows.reverse();
    let deltas = delta_rows
        .chunks(DELTA_ROWS)
        .map(|rows| Body::new(dirty, rows.to_vec()))
        .collect();

    let pool: Vec<usize> = (SERVED_ROWS..cut).collect();
    let probes = pool
        .chunks(PROBE_ROWS)
        .take(PROBE_REQUESTS)
        .map(|rows| body_covering(dirty, &served, &pool, rows[0] - SERVED_ROWS, rows.len()))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed ^ REQUEST_SALT);
    let requests = (0..n_requests)
        .map(|_| {
            let size = rng.gen_range(BODY_ROWS);
            let start = rng.gen_range(0..pool.len());
            body_covering(dirty, &served, &pool, start, size)
        })
        .collect();
    ServeInputs {
        served_csv,
        served,
        requests,
        deltas,
        probes,
    }
}

/// A body of `size` consecutive pool rows from `start` (wrapping), grown
/// row by row until every column has an observed cell: a column left all
/// empty would parse with another kind and be refused as a schema mismatch.
fn body_covering(dirty: &Table, served: &Table, pool: &[usize], start: usize, size: usize) -> Body {
    let mut n = size;
    loop {
        let rows: Vec<usize> = (0..n).map(|k| pool[(start + k) % pool.len()]).collect();
        let body = Body::new(dirty, rows);
        if body.table.schema() == served.schema() {
            return body;
        }
        n += 1;
        assert!(
            n <= pool.len(),
            "no body of the pool parses with the served schema"
        );
    }
}

/// Align a server answer with the request it answers, by display string,
/// so the imputation contract can be checked cell by cell. Returns `None`
/// when the answer's shape or kinds do not match the request.
pub fn align(request: &Table, answer: &Table) -> Option<Table> {
    if answer.n_rows() != request.n_rows() || answer.schema() != request.schema() {
        return None;
    }
    let mut aligned = request.clone();
    for i in 0..answer.n_rows() {
        for j in 0..answer.n_columns() {
            let v = match answer.get(i, j) {
                Value::Cat(_) => Value::Cat(aligned.intern(j, &answer.display(i, j))),
                v => v,
            };
            aligned.try_set(i, j, v).ok()?;
        }
    }
    Some(aligned)
}

/// Accumulates answered cells into a copy of the full dirty table, then
/// scores them against the clean truth with `grimp_metrics::evaluate`.
pub struct Scorer {
    assembled: Table,
    covered: Vec<bool>,
}

impl Scorer {
    pub fn new(inst: &Instance) -> Scorer {
        Scorer {
            assembled: inst.dirty.clone(),
            covered: vec![false; inst.dirty.n_rows()],
        }
    }

    /// Record the imputed cells of `answer` (aligned with `body`).
    pub fn add(&mut self, body: &Body, answer: &Table) {
        for (local, &row) in body.rows.iter().enumerate() {
            for j in 0..answer.n_columns() {
                if !body.table.is_missing(local, j) {
                    continue;
                }
                let v = match answer.get(local, j) {
                    Value::Cat(_) => {
                        Value::Cat(self.assembled.intern(j, &answer.display(local, j)))
                    }
                    v => v,
                };
                self.assembled.set(row, j, v);
            }
            self.covered[row] = true;
        }
    }

    /// `(accuracy, rmse)` over the injected cells of every covered row.
    pub fn score(&self, inst: &Instance) -> (f64, f64) {
        let log = CorruptionLog {
            cells: inst
                .log
                .cells
                .iter()
                .filter(|c| self.covered[c.row])
                .cloned()
                .collect(),
        };
        quality(&inst.clean, &self.assembled, &log)
    }
}

/// `(accuracy, rmse)` of an imputed table against the clean truth.
pub fn quality(clean: &Table, imputed: &Table, log: &CorruptionLog) -> (f64, f64) {
    let eval = grimp_metrics::evaluate(clean, imputed, log);
    (
        eval.accuracy().unwrap_or(f64::NAN),
        eval.rmse().unwrap_or(f64::NAN),
    )
}
