//! One declaration per stats view: [`stats_view!`](crate::stats_view).

/// Declares a `*Stats` view and the registry handles it is read from,
/// each field once.
///
/// The first struct is the public view (every field `pub`). A field is
/// a registry counter named `<prefix>field` (`field: Counter`), a
/// nested group generated by another `stats_view!` whose handles are
/// named `<prefix>field.*` (`field: View in Cells`), or a value that is
/// not a counter of its own (`field: Type = expr`).
///
/// The second struct holds one handle per counter and group, plus the
/// `Gauge` or `Histogram` handles listed in its body under the full
/// names given there. It gets `new(registry, prefix)`, which registers
/// every handle, and `view(&self, args…)`, the fold. When a value needs
/// them, the fold's arguments follow the struct's name in parentheses
/// and the name the handles are bound to between bars: `Cells(t: &T)`,
/// `Cells |m|` or `Cells(t: &T) |m|`.
///
/// ```
/// amd_obs::stats_view! {
///     /// Requests served.
///     #[derive(Debug, PartialEq, Eq)]
///     pub struct ServeStats {
///         /// Requests that failed.
///         failures: Counter,
///         /// Requests answered: the count of `serve.seconds`.
///         requests: u64 = m.latency.count(),
///     }
///     struct ServeCells |m| {
///         latency: Histogram = "serve.seconds",
///     }
/// }
///
/// let registry = amd_obs::Registry::new();
/// let cells = ServeCells::new(&registry, "serve.");
/// cells.latency.record_seconds(0.001);
/// cells.failures.inc();
/// assert_eq!(cells.view(), ServeStats { failures: 1, requests: 1 });
/// assert_eq!(registry.snapshot().counter("serve.failures"), Some(1));
/// ```
#[macro_export]
macro_rules! stats_view {
    (
        $(#[$vm:meta])*
        $vv:vis struct $View:ident { $($fields:tt)* }
        $(#[$cm:meta])*
        $cv:vis struct $Cells:ident $(($($arg:ident : $argty:ty),*))? $(|$cells:ident|)?
            { $($handles:tt)* }
    ) => {
        $crate::stats_view!(@field
            [$(#[$vm])* $vv struct $View]
            [$(#[$cm])* $cv struct $Cells [$($cells)?] [$($($arg : $argty),*)?]]
            {$($handles)*}
            [] [] [] []
            $($fields)*
        );
    };
    // The fields are sorted one at a time into four lists: the view's
    // declarations (in order), the counters, the groups and the values.
    (@field $view:tt $cells:tt $extra:tt [$($vf:tt)*] [$($c:tt)*] $g:tt $r:tt
        $(#[$m:meta])* $f:ident : Counter $(, $($rest:tt)*)?
    ) => {
        $crate::stats_view!(@field $view $cells $extra
            [$($vf)* $(#[$m])* pub $f: u64,] [$($c)* $f] $g $r
            $($($rest)*)?
        );
    };
    (@field $view:tt $cells:tt $extra:tt [$($vf:tt)*] $c:tt [$($g:tt)*] $r:tt
        $(#[$m:meta])* $f:ident : $V:ident in $G:ident $(, $($rest:tt)*)?
    ) => {
        $crate::stats_view!(@field $view $cells $extra
            [$($vf)* $(#[$m])* pub $f: $V,] $c [$($g)* $f: $G;] $r
            $($($rest)*)?
        );
    };
    (@field $view:tt $cells:tt $extra:tt [$($vf:tt)*] $c:tt $g:tt [$($r:tt)*]
        $(#[$m:meta])* $f:ident : $T:ty = $e:expr $(, $($rest:tt)*)?
    ) => {
        $crate::stats_view!(@field $view $cells $extra
            [$($vf)* $(#[$m])* pub $f: $T,] $c $g [$($r)* $f = $e;]
            $($($rest)*)?
        );
    };
    (@field
        [$(#[$vm:meta])* $vv:vis struct $View:ident]
        [$(#[$cm:meta])* $cv:vis struct $Cells:ident [$($cells:ident)?] [$($arg:ident : $argty:ty),*]]
        {$($(#[$hm:meta])* $h:ident : $H:ident = $name:expr),* $(,)?}
        [$($vf:tt)*] [$($c:ident)*] [$($g:ident : $G:ident;)*] [$($r:ident = $e:expr;)*]
    ) => {
        $(#[$vm])*
        $vv struct $View {
            $($vf)*
        }

        $(#[$cm])*
        $cv struct $Cells {
            $($(#[$hm])* $cv $h: $crate::$H,)*
            $($cv $c: $crate::Counter,)*
            $($cv $g: $G,)*
        }

        impl $Cells {
            /// Registers every handle: counters and groups under
            /// `<prefix><field>`, the others under their own names.
            $cv fn new(registry: &$crate::Registry, prefix: &str) -> Self {
                Self {
                    $($h: $crate::stats_view!(@register registry $H $name),)*
                    $($c: registry.counter(&format!("{prefix}{}", stringify!($c))),)*
                    $($g: $G::new(registry, &format!("{prefix}{}.", stringify!($g))),)*
                }
            }

            /// The handles' current values as a view.
            $cv fn view(&self $(, $arg: $argty)*) -> $View {
                $(let $cells = self;)?
                $View {
                    $($c: self.$c.get(),)*
                    $($g: self.$g.view(),)*
                    $($r: $e,)*
                }
            }
        }
    };
    (@register $registry:ident Gauge $name:expr) => { $registry.gauge($name) };
    (@register $registry:ident Histogram $name:expr) => { $registry.histogram($name) };
}
