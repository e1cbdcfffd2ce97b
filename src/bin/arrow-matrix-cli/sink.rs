//! Where a run's telemetry goes: the `--metrics-json`, `--timeseries`
//! and `--trace-json` flags, each written if the subcommand declares it
//! and it was given.

use crate::args::{Args, Outcome};
use arrow_matrix::obs::{chrome_trace_json, Telemetry, TimeSeriesRecorder};
use std::fs::File;
use std::io::Write as _;

pub struct Sink {
    telemetry: Telemetry,
    metrics_json: Option<String>,
    /// One `amd-metrics-ts/1` line per checkpoint, appended to a JSONL
    /// log created fresh when the sink opens; `top` reads it back.
    timeseries: Option<(String, TimeSeriesRecorder, File)>,
    trace_json: Option<String>,
}

impl Sink {
    /// The sink for `telemetry`, creating the time-series log if asked.
    pub fn open(args: &Args, telemetry: &Telemetry) -> Result<Self, String> {
        let timeseries = args.flag("timeseries").map(|path| {
            let file = File::create(path).map_err(|e| format!("create {path}: {e}"))?;
            let recorder = TimeSeriesRecorder::new(&telemetry.registry);
            Ok::<_, String>((path.to_string(), recorder, file))
        });
        Ok(Self {
            telemetry: telemetry.clone(),
            metrics_json: args.flag("metrics-json").map(str::to_string),
            timeseries: timeseries.transpose()?,
            trace_json: args.flag("trace-json").map(str::to_string),
        })
    }

    /// Rewrites the metrics snapshot and appends a time-series line, so
    /// a tailing `stats` or `top` sees the run progress.
    pub fn checkpoint(&mut self) -> Outcome {
        if let Some(path) = &self.metrics_json {
            std::fs::write(path, self.telemetry.registry.snapshot().to_json())
                .map_err(|e| format!("write {path}: {e}"))?;
        }
        if let Some((_, recorder, file)) = &mut self.timeseries {
            let line = recorder.sample();
            writeln!(file, "{line}").map_err(|e| format!("append timeseries: {e}"))?;
        }
        Ok(())
    }

    /// The last checkpoint, then the tracer ring as a Chrome Trace
    /// Event Format file (Perfetto / `chrome://tracing`); names each
    /// file written.
    pub fn finish(mut self) -> Outcome {
        self.checkpoint()?;
        if let Some(path) = &self.metrics_json {
            println!("metrics : wrote {path}");
        }
        if let Some((path, ..)) = &self.timeseries {
            println!("timeseries : wrote {path}");
        }
        if let Some(path) = &self.trace_json {
            std::fs::write(path, chrome_trace_json(&self.telemetry.tracer.snapshot()))
                .map_err(|e| format!("write {path}: {e}"))?;
            println!("trace   : wrote {path} (Chrome Trace Event Format)");
        }
        Ok(())
    }
}
