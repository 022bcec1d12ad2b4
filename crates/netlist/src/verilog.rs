//! Structural Verilog (gate-level subset): parser and writer.
//!
//! The accepted subset covers what gate-level netlists actually use:
//!
//! ```text
//! module c17 (N1, N2, N3, N6, N7, N22, N23);
//!   input N1, N2, N3, N6, N7;
//!   output N22, N23;
//!   wire N10, N11, N16, N19;
//!   nand g10 (N10, N1, N3);
//!   nand g11 (N11, N3, N6);
//!   NAND2 g16 (.Z(N16), .I0(N2), .I1(N11));
//!   nand g19 (N19, N11, N7);
//!   nand g22 (N22, N10, N16);
//!   nand g23 (N23, N16, N19);
//! endmodule
//! ```
//!
//! * Verilog gate primitives (`and`, `nand`, `or`, `nor`, `xor`, `xnor`,
//!   `not`, `buf`) with positional ports, output first, any arity (wide
//!   gates are decomposed like the `.bench` parser does);
//! * library-cell instantiations by name (`NAND2`, `AOI21`, …) with either
//!   positional (`(out, in0, in1, …)`) or named (`.Z(out), .I0(a)…`) ports;
//! * one module per file; `input`/`output`/`wire` declarations, single-bit
//!   only; `//` and `/* */` comments.

use std::collections::HashMap;
use std::fmt::Write as _;

use relia_cells::Library;

use crate::builder::CircuitBuilder;
use crate::circuit::{Circuit, NetId};
use crate::error::NetlistError;

/// Parses the structural-Verilog subset into a [`Circuit`] over `library`.
///
/// # Errors
///
/// Returns [`NetlistError::ParseError`] for text outside the subset, plus
/// the usual construction errors.
///
/// ```
/// use relia_cells::Library;
/// use relia_netlist::verilog;
///
/// # fn main() -> Result<(), relia_netlist::NetlistError> {
/// let src = "module m (a, b, y); input a, b; output y; nand g (y, a, b); endmodule";
/// let c = verilog::parse(src, Library::ptm90())?;
/// assert_eq!(c.gates().len(), 1);
/// # Ok(())
/// # }
/// ```
pub fn parse(text: &str, library: Library) -> Result<Circuit, NetlistError> {
    let tokens = tokenize(text)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        library,
    };
    p.module()
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Sym(char),
}

fn tokenize(text: &str) -> Result<Vec<(usize, Tok)>, NetlistError> {
    let mut out = Vec::new();
    let mut line = 1usize;
    let mut chars = text.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            '\n' => {
                line += 1;
                chars.next();
            }
            c if c.is_whitespace() => {
                chars.next();
            }
            '/' => {
                chars.next();
                match chars.peek() {
                    Some('/') => {
                        for c in chars.by_ref() {
                            if c == '\n' {
                                line += 1;
                                break;
                            }
                        }
                    }
                    Some('*') => {
                        chars.next();
                        let mut prev = ' ';
                        for c in chars.by_ref() {
                            if c == '\n' {
                                line += 1;
                            }
                            if prev == '*' && c == '/' {
                                break;
                            }
                            prev = c;
                        }
                    }
                    _ => {
                        return Err(NetlistError::ParseError {
                            line,
                            message: "stray '/'".into(),
                        })
                    }
                }
            }
            c if c.is_alphanumeric() || c == '_' || c == '\\' => {
                let mut ident = String::new();
                // Escaped identifiers (`\foo `) run to whitespace.
                if c == '\\' {
                    chars.next();
                    while let Some(&c) = chars.peek() {
                        if c.is_whitespace() {
                            break;
                        }
                        ident.push(c);
                        chars.next();
                    }
                } else {
                    while let Some(&c) = chars.peek() {
                        if c.is_alphanumeric() || c == '_' || c == '$' {
                            ident.push(c);
                            chars.next();
                        } else {
                            break;
                        }
                    }
                }
                out.push((line, Tok::Ident(ident)));
            }
            '(' | ')' | ',' | ';' | '.' => {
                out.push((line, Tok::Sym(c)));
                chars.next();
            }
            other => {
                return Err(NetlistError::ParseError {
                    line,
                    message: format!("unexpected character '{other}'"),
                })
            }
        }
    }
    Ok(out)
}

struct Parser {
    tokens: Vec<(usize, Tok)>,
    pos: usize,
    library: Library,
}

impl Parser {
    fn line(&self) -> usize {
        self.tokens
            .get(self.pos.min(self.tokens.len().saturating_sub(1)))
            .map(|(l, _)| *l)
            .unwrap_or(0)
    }

    fn err(&self, message: impl Into<String>) -> NetlistError {
        NetlistError::ParseError {
            line: self.line(),
            message: message.into(),
        }
    }

    fn next_ident(&mut self) -> Result<String, NetlistError> {
        match self.tokens.get(self.pos) {
            Some((_, Tok::Ident(s))) => {
                self.pos += 1;
                Ok(s.clone())
            }
            _ => Err(self.err("expected identifier")),
        }
    }

    fn expect_sym(&mut self, c: char) -> Result<(), NetlistError> {
        match self.tokens.get(self.pos) {
            Some((_, Tok::Sym(s))) if *s == c => {
                self.pos += 1;
                Ok(())
            }
            _ => Err(self.err(format!("expected '{c}'"))),
        }
    }

    fn peek_sym(&self, c: char) -> bool {
        matches!(self.tokens.get(self.pos), Some((_, Tok::Sym(s))) if *s == c)
    }

    fn ident_list_until_semi(&mut self) -> Result<Vec<String>, NetlistError> {
        let mut names = vec![self.next_ident()?];
        loop {
            if self.peek_sym(',') {
                self.pos += 1;
                names.push(self.next_ident()?);
            } else {
                self.expect_sym(';')?;
                return Ok(names);
            }
        }
    }

    fn module(&mut self) -> Result<Circuit, NetlistError> {
        let kw = self.next_ident()?;
        if kw != "module" {
            return Err(self.err("expected 'module'"));
        }
        let name = self.next_ident()?;
        // Port header (names only; directions come from declarations).
        self.expect_sym('(')?;
        while !self.peek_sym(')') {
            let _ = self.next_ident()?;
            if self.peek_sym(',') {
                self.pos += 1;
            }
        }
        self.expect_sym(')')?;
        self.expect_sym(';')?;

        #[derive(Debug)]
        struct Inst {
            line: usize,
            kind: String,
            name: String,
            positional: Vec<String>,
            named: Vec<(String, String)>,
        }
        let mut inputs: Vec<String> = Vec::new();
        let mut outputs: Vec<String> = Vec::new();
        let mut instances: Vec<Inst> = Vec::new();
        let mut inst_no = 0usize;

        loop {
            let line = self.line();
            let kw = self.next_ident()?;
            match kw.as_str() {
                "endmodule" => break,
                "input" => inputs.extend(self.ident_list_until_semi()?),
                "output" => outputs.extend(self.ident_list_until_semi()?),
                "wire" => {
                    let _ = self.ident_list_until_semi()?;
                }
                kind => {
                    // Gate primitive or cell instantiation; instance name is
                    // optional for primitives.
                    inst_no += 1;
                    let inst_name = if self.peek_sym('(') {
                        format!("u{inst_no}")
                    } else {
                        self.next_ident()?
                    };
                    self.expect_sym('(')?;
                    let mut positional = Vec::new();
                    let mut named = Vec::new();
                    while !self.peek_sym(')') {
                        if self.peek_sym('.') {
                            self.pos += 1;
                            let port = self.next_ident()?;
                            self.expect_sym('(')?;
                            let net = self.next_ident()?;
                            self.expect_sym(')')?;
                            named.push((port, net));
                        } else {
                            positional.push(self.next_ident()?);
                        }
                        if self.peek_sym(',') {
                            self.pos += 1;
                        }
                    }
                    self.expect_sym(')')?;
                    self.expect_sym(';')?;
                    instances.push(Inst {
                        line,
                        kind: kind.to_owned(),
                        name: inst_name,
                        positional,
                        named,
                    });
                }
            }
        }

        // Elaborate: resolve each instance to (output net, func, input nets),
        // then reuse the .bench emission machinery via dependency order.
        let mut builder = CircuitBuilder::new(name, self.library.clone());
        let mut resolved: HashMap<String, NetId> = HashMap::new();
        for pi in &inputs {
            let id = builder.add_input(pi.clone());
            resolved.insert(pi.clone(), id);
        }

        struct Def {
            line: usize,
            func: String,
            inputs: Vec<String>,
            instance: String,
        }
        let mut defs: HashMap<String, Def> = HashMap::new();
        let mut order: Vec<String> = Vec::new();
        for inst in instances {
            let (out_net, in_nets, func) =
                self.resolve_ports(&inst.kind, inst.line, inst.positional, inst.named)?;
            if defs.contains_key(&out_net) || resolved.contains_key(&out_net) {
                return Err(NetlistError::DuplicateNet { name: out_net });
            }
            order.push(out_net.clone());
            defs.insert(
                out_net,
                Def {
                    line: inst.line,
                    func,
                    inputs: in_nets,
                    instance: inst.name,
                },
            );
        }

        // Dependency-ordered emission (iterative DFS, cycle detecting).
        enum Task {
            Visit(String),
            Emit(String),
        }
        let mut in_progress: HashMap<String, bool> = HashMap::new();
        for root in &order {
            if resolved.contains_key(root) {
                continue;
            }
            let mut stack = vec![Task::Visit(root.clone())];
            while let Some(task) = stack.pop() {
                match task {
                    Task::Visit(net) => {
                        if resolved.contains_key(&net) {
                            continue;
                        }
                        if in_progress.get(&net).copied().unwrap_or(false) {
                            return Err(NetlistError::CombinationalCycle { near: net });
                        }
                        in_progress.insert(net.clone(), true);
                        let def = defs
                            .get(&net)
                            .ok_or_else(|| NetlistError::UndrivenNet { name: net.clone() })?;
                        stack.push(Task::Emit(net.clone()));
                        for dep in def.inputs.clone() {
                            if !resolved.contains_key(&dep) {
                                stack.push(Task::Visit(dep));
                            }
                        }
                    }
                    Task::Emit(net) => {
                        let def = &defs[&net];
                        let ids: Vec<NetId> =
                            def.inputs
                                .iter()
                                .map(|d| {
                                    resolved.get(d).copied().ok_or_else(|| {
                                        NetlistError::UndrivenNet { name: d.clone() }
                                    })
                                })
                                .collect::<Result<_, _>>()?;
                        let _ = &def.instance;
                        // Direct library-cell instantiations bypass the
                        // function decomposer; generic primitives go
                        // through it (wide gates get decomposed).
                        let direct = builder
                            .library()
                            .find(&def.func)
                            .map(|id| builder.library().cell(id).num_pins() == ids.len())
                            .unwrap_or(false);
                        let out = if direct {
                            let func = def.func.clone();
                            builder.add_gate(&func, &net, &ids)?
                        } else {
                            crate::bench::emit_function(&mut builder, &def.func, &net, &ids)
                                .map_err(|e| match e {
                                    NetlistError::ParseError { message, .. } => {
                                        NetlistError::ParseError {
                                            line: def.line,
                                            message,
                                        }
                                    }
                                    other => other,
                                })?
                        };
                        in_progress.insert(net.clone(), false);
                        resolved.insert(net, out);
                    }
                }
            }
        }

        for po in &outputs {
            let id = resolved
                .get(po)
                .copied()
                .ok_or_else(|| NetlistError::UndrivenNet { name: po.clone() })?;
            builder.mark_output(id);
        }
        builder.build()
    }

    /// Maps an instance to `(output net, input nets, bench-style function)`.
    fn resolve_ports(
        &self,
        kind: &str,
        line: usize,
        positional: Vec<String>,
        named: Vec<(String, String)>,
    ) -> Result<(String, Vec<String>, String), NetlistError> {
        let err = |message: String| NetlistError::ParseError { line, message };
        // An exact library-cell name wins over the primitive keywords (the
        // writer emits cells like `BUF` with named ports, which must not be
        // mistaken for the positional-only `buf` primitive).
        if self.library.find(kind).is_some() {
            return self.resolve_cell_ports(kind, line, positional, named);
        }
        let func = match kind.to_ascii_lowercase().as_str() {
            "and" => "AND",
            "nand" => "NAND",
            "or" => "OR",
            "nor" => "NOR",
            "xor" => "XOR",
            "xnor" => "XNOR",
            "not" => "NOT",
            "buf" => "BUFF",
            _ => return Err(err(format!("unknown cell or primitive {kind}"))),
        };
        let mut it = positional.into_iter();
        let out = it
            .next()
            .ok_or_else(|| err("primitive needs ports".into()))?;
        let ins: Vec<String> = it.collect();
        if ins.is_empty() {
            return Err(err("primitive needs at least one input".into()));
        }
        Ok((out, ins, func.to_owned()))
    }

    /// Resolves a library-cell instantiation with positional or named ports.
    fn resolve_cell_ports(
        &self,
        kind: &str,
        line: usize,
        positional: Vec<String>,
        named: Vec<(String, String)>,
    ) -> Result<(String, Vec<String>, String), NetlistError> {
        let err = |message: String| NetlistError::ParseError { line, message };
        #[expect(clippy::expect_used, reason = "the caller checked the library")]
        let cell = self.library.find(kind).expect("caller checked the library");
        let n = self.library.cell(cell).num_pins();
        let (out, ins) = if !named.is_empty() {
            let mut out = None;
            let mut ins = vec![None; n];
            for (port, net) in named {
                if port == "Z" || port == "Y" || port == "OUT" {
                    out = Some(net);
                } else if let Some(idx) = port
                    .strip_prefix('I')
                    .or_else(|| port.strip_prefix('A'))
                    .and_then(|s| s.parse::<usize>().ok())
                {
                    if idx >= n {
                        return Err(err(format!("port {port} out of range")));
                    }
                    ins[idx] = Some(net);
                } else {
                    return Err(err(format!("unknown port {port}")));
                }
            }
            let out = out.ok_or_else(|| err("missing output port Z".into()))?;
            let ins: Option<Vec<String>> = ins.into_iter().collect();
            (out, ins.ok_or_else(|| err("missing input port".into()))?)
        } else {
            let mut it = positional.into_iter();
            let out = it.next().ok_or_else(|| err("missing ports".into()))?;
            let ins: Vec<String> = it.collect();
            if ins.len() != n {
                return Err(err(format!(
                    "cell {kind} expects {n} inputs, got {}",
                    ins.len()
                )));
            }
            (out, ins)
        };
        Ok((out, ins, kind.to_owned()))
    }
}

/// Serializes a circuit as structural Verilog using library-cell
/// instantiations with named ports.
pub fn write(circuit: &Circuit) -> String {
    let mut out = String::new();
    let ports: Vec<&str> = circuit
        .primary_inputs()
        .iter()
        .chain(circuit.primary_outputs())
        .map(|&n| circuit.net(n).name())
        .collect();
    let _ = writeln!(
        out,
        "module {} ({});",
        sanitize(circuit.name()),
        ports.join(", ")
    );
    let ins: Vec<&str> = circuit
        .primary_inputs()
        .iter()
        .map(|&n| circuit.net(n).name())
        .collect();
    let _ = writeln!(out, "  input {};", ins.join(", "));
    let outs: Vec<&str> = circuit
        .primary_outputs()
        .iter()
        .map(|&n| circuit.net(n).name())
        .collect();
    let _ = writeln!(out, "  output {};", outs.join(", "));
    let wires: Vec<&str> = circuit
        .gates()
        .iter()
        .map(|g| circuit.net(g.output()).name())
        .filter(|n| !outs.contains(n))
        .collect();
    if !wires.is_empty() {
        let _ = writeln!(out, "  wire {};", wires.join(", "));
    }
    for (k, &gid) in circuit.topo_order().iter().enumerate() {
        let gate = circuit.gate(gid);
        let cell = circuit.library().cell(gate.cell());
        let mut ports = vec![format!(".Z({})", circuit.net(gate.output()).name())];
        for (i, &input) in gate.inputs().iter().enumerate() {
            ports.push(format!(".I{i}({})", circuit.net(input).name()));
        }
        let _ = writeln!(out, "  {} u{k} ({});", cell.name(), ports.join(", "));
    }
    let _ = writeln!(out, "endmodule");
    out
}

fn sanitize(name: &str) -> String {
    let cleaned: String = name
        .chars()
        .map(|c| {
            if c.is_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if cleaned
        .chars()
        .next()
        .map(|c| c.is_ascii_digit())
        .unwrap_or(true)
    {
        format!("m_{cleaned}")
    } else {
        cleaned
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iscas;
    use relia_cells::Library;

    fn eval(c: &Circuit, pi: &[bool]) -> Vec<bool> {
        let mut values = vec![false; c.nets().len()];
        for (i, &p) in c.primary_inputs().iter().enumerate() {
            values[p.index()] = pi[i];
        }
        for &gid in c.topo_order() {
            let g = c.gate(gid);
            let ins: Vec<bool> = g.inputs().iter().map(|n| values[n.index()]).collect();
            values[g.output().index()] = c.library().cell(g.cell()).eval(&ins);
        }
        c.primary_outputs()
            .iter()
            .map(|p| values[p.index()])
            .collect()
    }

    const C17_V: &str = "
// ISCAS85 c17 in structural Verilog
module c17 (N1, N2, N3, N6, N7, N22, N23);
  input N1, N2, N3, N6, N7;
  output N22, N23;
  wire N10, N11, N16, N19;
  nand g10 (N10, N1, N3);
  nand g11 (N11, N3, N6);
  nand g16 (N16, N2, N11);
  nand g19 (N19, N11, N7);
  nand g22 (N22, N10, N16);
  nand g23 (N23, N16, N19);
endmodule
";

    #[test]
    fn c17_verilog_matches_builtin() {
        let parsed = parse(C17_V, Library::ptm90()).unwrap();
        let builtin = iscas::c17();
        assert_eq!(parsed.stats(), builtin.stats());
        for bits in 0..32u32 {
            let v: Vec<bool> = (0..5).map(|i| bits >> i & 1 == 1).collect();
            assert_eq!(eval(&parsed, &v), eval(&builtin, &v), "{v:?}");
        }
    }

    #[test]
    fn named_cell_instantiation_works() {
        let src = "module m (a, b, c, y);
          input a, b, c; output y;
          wire t;
          AOI21 u1 (.Z(t), .I0(a), .I1(b), .I2(c));
          INV u2 (.Z(y), .I0(t));
        endmodule";
        let c = parse(src, Library::ptm90()).unwrap();
        assert_eq!(c.gates().len(), 2);
        // y = AB + C.
        for bits in 0..8u32 {
            let v: Vec<bool> = (0..3).map(|i| bits >> i & 1 == 1).collect();
            assert_eq!(eval(&c, &v), vec![(v[0] && v[1]) || v[2]], "{v:?}");
        }
    }

    #[test]
    fn out_of_order_instances_resolve() {
        let src = "module m (a, y); input a; output y;
          wire t;
          not (y, t);
          not (t, a);
        endmodule";
        let c = parse(src, Library::ptm90()).unwrap();
        assert_eq!(eval(&c, &[true]), vec![true]);
    }

    #[test]
    fn comments_are_ignored() {
        let src = "/* header */ module m (a, y); // ports
          input a; output y;
          buf g (y, a); /* passthrough */
        endmodule";
        assert!(parse(src, Library::ptm90()).is_ok());
    }

    #[test]
    fn wide_primitives_decompose() {
        let src = "module m (a, b, c, d, e, y); input a, b, c, d, e; output y;
          nand g (y, a, b, c, d, e);
        endmodule";
        let c = parse(src, Library::ptm90()).unwrap();
        for bits in 0..32u32 {
            let v: Vec<bool> = (0..5).map(|i| bits >> i & 1 == 1).collect();
            let want = !(v.iter().all(|&x| x));
            assert_eq!(eval(&c, &v), vec![want], "{v:?}");
        }
    }

    #[test]
    fn round_trip_preserves_function() {
        let c1 = iscas::c17();
        let text = write(&c1);
        let c2 = parse(&text, Library::ptm90()).unwrap();
        for bits in 0..32u32 {
            let v: Vec<bool> = (0..5).map(|i| bits >> i & 1 == 1).collect();
            assert_eq!(eval(&c1, &v), eval(&c2, &v), "{v:?}");
        }
    }

    #[test]
    fn errors_carry_line_numbers() {
        let src = "module m (a, y);\ninput a;\noutput y;\nfrobnicate g (y, a);\nendmodule";
        match parse(src, Library::ptm90()) {
            Err(NetlistError::ParseError { line, .. }) => assert_eq!(line, 4),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn cycle_is_detected() {
        let src = "module m (a, y); input a; output y; wire t;
          nand g1 (y, a, t);
          not g2 (t, y);
        endmodule";
        assert!(matches!(
            parse(src, Library::ptm90()),
            Err(NetlistError::CombinationalCycle { .. })
        ));
    }
}
