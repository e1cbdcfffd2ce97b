//! The command-line grammar. Each subcommand is declared once, by its
//! synopsis: the words of its name, then `<name>` for a required
//! positional, `[name=default]` for an optional one, `[--name META]` for
//! a flag that takes a value and `[--name]` for a switch. The parser,
//! the usage text and each arity error all read that declaration.

use std::error::Error;
use std::fmt::Display;
use std::str::FromStr;

/// What a subcommand returns: `Err` is printed as one line, exit 1.
pub type Outcome = Result<(), Box<dyn Error>>;

/// A subcommand: the synopsis that declares its arguments, and what
/// runs it.
pub struct Cmd(pub &'static str, pub fn(&Args) -> Outcome);

/// A synopsis, read into its parts.
#[derive(Default)]
struct Grammar {
    /// `["catalog", "ls"]`.
    name: Vec<&'static str>,
    /// Every word, the name's included; `[--name META]` is one word.
    words: Vec<&'static str>,
    /// Positionals in order, with the default of an optional one.
    pos: Vec<(&'static str, Option<&'static str>)>,
    /// Flags, with the `META` of one that takes a value.
    flags: Vec<(&'static str, Option<&'static str>)>,
}

impl Grammar {
    fn read(synopsis: &'static str) -> Self {
        let mut g = Self::default();
        let mut rest = synopsis.trim();
        while let Some(open) = rest.chars().next() {
            let end = match open {
                '[' => rest.find(']').map_or(rest.len(), |i| i + 1),
                _ => rest.find(' ').unwrap_or(rest.len()),
            };
            let (word, inner) = (&rest[..end], rest.get(1..end - 1).unwrap_or(""));
            match (open, inner.strip_prefix("--")) {
                ('[', Some(flag)) => g.flags.push(match flag.split_once(' ') {
                    Some((name, meta)) => (name, Some(meta)),
                    None => (flag, None),
                }),
                ('[', None) => g.pos.push(match inner.split_once('=') {
                    Some((name, default)) => (name, Some(default)),
                    None => (inner, None),
                }),
                ('<', _) => g.pos.push((inner, None)),
                _ => g.name.push(word),
            }
            g.words.push(word);
            rest = rest[end..].trim_start();
        }
        g
    }

    fn takes(&self, flag: &str) -> Option<Option<&'static str>> {
        self.flags.iter().find(|f| f.0 == flag).map(|f| f.1)
    }
}

/// The usage text: every synopsis, wrapped at 80 columns, then the
/// global flags and `notes`.
pub fn usage(cmds: &[Cmd], global: &str, notes: &str) -> String {
    let mut text = String::from("usage:\n");
    for cmd in cmds {
        let g = Grammar::read(cmd.0);
        let mut line = format!("  arrow-matrix-cli {}", g.name.join(" "));
        let indent = line.len() + 1;
        for word in &g.words[g.name.len()..] {
            if line.len() + 1 + word.len() > 80 {
                text += &line;
                line = format!("\n{:indent$}{word}", "");
            } else {
                line = format!("{line} {word}");
            }
        }
        text += &line;
        text.push('\n');
    }
    format!("{text}global: {global} {notes}")
}

/// A parsed command line: the subcommand, its positionals, and every
/// flag given, global ones included.
pub struct Args<'a> {
    run: fn(&Args) -> Outcome,
    grammar: Grammar,
    pos: Vec<&'a str>,
    flags: Vec<(&'a str, Option<&'a str>)>,
}

/// Reads `argv` against the declarations. `Ok(None)` when no known
/// subcommand was named (print the usage); an error carries the exit
/// code, 2 for a global flag and 1 otherwise.
pub fn parse<'a>(
    argv: &'a [String],
    cmds: &[Cmd],
    global: &'static str,
) -> Result<Option<Args<'a>>, (u8, String)> {
    let grammars: Vec<Grammar> = cmds.iter().map(|c| Grammar::read(c.0)).collect();
    let global = Grammar::read(global);
    let mut words: Vec<&str> = Vec::new();
    let mut flags = Vec::new();
    let mut i = 0;
    while let Some(token) = argv.get(i) {
        i += 1;
        let Some(name) = token.strip_prefix("--") else {
            words.push(token);
            continue;
        };
        // A flag of the named subcommand's family or a global one; an
        // undeclared flag takes no value.
        let mut family = grammars.iter().filter(|g| words.first() == g.name.first());
        let meta = family
            .find_map(|g| g.takes(name))
            .or_else(|| global.takes(name));
        let value = meta.flatten().map(|meta| {
            let code = if global.takes(name).is_some() { 2 } else { 1 };
            let value = argv.get(i).ok_or((code, format!("--{name} needs {meta}")));
            i += 1;
            value.map(String::as_str)
        });
        flags.push((name, value.transpose()?));
    }
    // The subcommand whose name starts the words: the longest one.
    let named = (0..cmds.len()).filter(|&i| words.starts_with(&grammars[i].name));
    let Some(at) = named.max_by_key(|&i| grammars[i].name.len()) else {
        let family = grammars.iter().filter(|g| words.first() == g.name.first());
        let subs: Vec<&str> = family.map(|g| g.name[1]).collect();
        return match subs.is_empty() {
            true => Ok(None),
            false => Err((1, format!("{} needs {}", words[0], subs.join("|")))),
        };
    };
    let grammar = grammars.into_iter().nth(at).expect("found above");
    for (name, _) in &flags {
        if grammar.takes(name).or_else(|| global.takes(name)).is_none() {
            return Err((1, format!("unknown flag --{name}")));
        }
    }
    let pos = words.split_off(grammar.name.len());
    let required = grammar.pos.iter().filter(|p| p.1.is_none()).count();
    if !(required..=grammar.pos.len()).contains(&pos.len()) {
        let (name, args) = grammar.words.split_at(grammar.name.len());
        return Err((1, format!("{} needs {}", name.join(" "), args.join(" "))));
    }
    let run = cmds[at].1;
    Ok(Some(Args {
        run,
        grammar,
        pos,
        flags,
    }))
}

impl<'a> Args<'a> {
    /// Runs the subcommand on these arguments.
    pub fn run(&self) -> Outcome {
        (self.run)(self)
    }

    /// The subcommand's name, for its messages.
    pub fn name(&self) -> String {
        self.grammar.name.join(" ")
    }

    /// The declared positional `name`, or its default.
    pub fn str(&self, name: &str) -> &'a str {
        let declared = &self.grammar.pos;
        let i = declared.iter().position(|p| p.0 == name);
        let i = i.unwrap_or_else(|| panic!("{} declares no <{name}>", self.name()));
        let given = self.pos.get(i).copied().or(declared[i].1);
        given.expect("the parser checked the arity")
    }

    /// [`str`](Self::str), parsed; the error is `bad <name>: …`.
    pub fn parse<T: FromStr>(&self, name: &str) -> Result<T, String>
    where
        T::Err: Display,
    {
        let s = self.str(name);
        s.parse().map_err(|e| format!("bad {name}: {e}"))
    }

    /// The value of the last `--name` given.
    pub fn flag(&self, name: &str) -> Option<&'a str> {
        self.flags.iter().rev().find(|f| f.0 == name)?.1
    }

    /// Whether the switch `--name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f.0 == name)
    }

    /// [`flag`](Self::flag), parsed; the error is `bad --<name>: …`.
    pub fn parse_flag<T: FromStr>(&self, name: &str) -> Result<Option<T>, String>
    where
        T::Err: Display,
    {
        let parsed = self.flag(name).map(str::parse::<T>).transpose();
        parsed.map_err(|e| format!("bad --{name}: {e}"))
    }
}
