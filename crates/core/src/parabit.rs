//! The ParaBit baseline (§3.1, Fig. 6) — the state-of-the-art in-flash
//! processing technique Flash-Cosmos is compared against.
//!
//! ParaBit reads operands **serially** with regular single-wordline
//! senses, accumulating in the latch pair:
//!
//! * AND: sense each operand without re-initializing the S-latch
//!   (Fig. 6b) — `operands` senses, one result transfer.
//! * OR: re-initialize S before each sense, transfer after each sense so
//!   the C-latch OR-accumulates (Fig. 6c).
//! * General OR-of-ANDs: per disjunct, S-init + AND-accumulating senses +
//!   one transfer.
//!
//! Every operand costs one full `tR` sensing operation — the serial-
//! sensing bottleneck of §3.2 that MWS removes. The compiler below emits
//! only regular reads (one wordline per command), faithfully modelling a
//! chip *without* MWS support.

use fc_nand::command::{Command, IscmFlags, MwsTarget};

use crate::expr::Nnf;
use crate::planner::{MwsProgram, PlacementMap, PlanError};

/// Compiles an NNF expression into a ParaBit program (serial single-WL
/// reads). Returns the same [`MwsProgram`] container as the Flash-Cosmos
/// planner so both run through identical chip execution.
///
/// Supported shapes (what the ParaBit paper's mechanisms express):
/// literals, AND of literals (at most one raw-complement literal, which
/// must lead), OR of such AND-groups, and XOR of two literals. Anything
/// else returns [`PlanError::Unplannable`].
///
/// # Errors
///
/// See [`PlanError`].
pub fn compile(nnf: &Nnf, placements: &PlacementMap) -> Result<MwsProgram, PlanError> {
    let mut compiler = ParabitCompiler { placements, plane: None };
    if let Nnf::Xor(a, b) = nnf {
        // Same two-read + XOR-logic shape as Flash-Cosmos: the XOR logic
        // pre-dates MWS (§6.1 cites commodity chips).
        let (Nnf::Literal(la), Nnf::Literal(lb)) = (a.as_ref(), b.as_ref()) else {
            return Err(PlanError::UnsupportedXor);
        };
        let ra = compiler.resolve(*la)?;
        let rb = compiler.resolve(*lb)?;
        let commands = vec![
            read_cmd(ra, true, true),
            read_cmd(rb, false, false),
            Command::XorLatch { plane: compiler.plane.unwrap_or(0) },
        ];
        return Ok(MwsProgram {
            commands,
            controller_not: false,
            plane: compiler.plane.unwrap_or(0),
        });
    }

    let disjuncts: Vec<&Nnf> = match nnf {
        Nnf::Or(cs) => cs.iter().collect(),
        other => vec![other],
    };
    let mut commands = Vec::new();
    for (d, disjunct) in disjuncts.iter().enumerate() {
        let first_of_program = d == 0;
        compiler.emit_and_chain(disjunct, first_of_program, &mut commands)?;
    }
    Ok(MwsProgram { commands, controller_not: false, plane: compiler.plane.unwrap_or(0) })
}

struct Resolved {
    wl: fc_nand::geometry::WlAddr,
    raw_positive: bool,
}

fn read_cmd(r: Resolved, init_c: bool, transfer: bool) -> Command {
    Command::Mws {
        flags: IscmFlags { inverse: !r.raw_positive, init_s: true, init_c, transfer },
        targets: vec![MwsTarget::new(r.wl.block(), &[r.wl.wl])],
    }
}

struct ParabitCompiler<'a> {
    placements: &'a PlacementMap,
    plane: Option<u32>,
}

impl<'a> ParabitCompiler<'a> {
    fn resolve(&mut self, lit: crate::expr::Literal) -> Result<Resolved, PlanError> {
        let p = self.placements.get(lit.id).ok_or(PlanError::NoPlacement(lit.id))?;
        match self.plane {
            None => self.plane = Some(p.wl.plane),
            Some(pl) if pl != p.wl.plane => return Err(PlanError::PlaneMismatch),
            _ => {}
        }
        Ok(Resolved { wl: p.wl, raw_positive: lit.negated == p.inverted })
    }

    /// Emits one disjunct: serial AND-accumulating reads ending in a
    /// transfer into the (OR-accumulating) C-latch.
    fn emit_and_chain(
        &mut self,
        disjunct: &Nnf,
        first_of_program: bool,
        commands: &mut Vec<Command>,
    ) -> Result<(), PlanError> {
        let lits: Vec<crate::expr::Literal> = match disjunct {
            Nnf::Literal(l) => vec![*l],
            Nnf::And(cs) => cs
                .iter()
                .map(|c| match c {
                    Nnf::Literal(l) => Ok(*l),
                    _ => Err(PlanError::Unplannable(
                        "ParaBit supports OR-of-AND shapes over literals only".to_string(),
                    )),
                })
                .collect::<Result<_, _>>()?,
            _ => {
                return Err(PlanError::Unplannable(
                    "ParaBit supports OR-of-AND shapes over literals only".to_string(),
                ))
            }
        };
        let mut resolved: Vec<Resolved> =
            lits.into_iter().map(|l| self.resolve(l)).collect::<Result<_, _>>()?;
        // An inverse read re-initializes the S-latch, so at most one
        // raw-complement literal fits an AND chain, and it must lead.
        let complements = resolved.iter().filter(|r| !r.raw_positive).count();
        if complements > 1 {
            return Err(PlanError::Unplannable(
                "ParaBit cannot AND more than one complemented operand (inverse reads \
                 re-initialize the sensing latch); store the operands inverted instead"
                    .to_string(),
            ));
        }
        resolved.sort_by_key(|r| r.raw_positive); // complement (if any) first
        let n = resolved.len();
        for (i, r) in resolved.into_iter().enumerate() {
            let init_c = first_of_program && i == 0;
            let transfer = i + 1 == n;
            let mut cmd = read_cmd(r, init_c, transfer);
            if let Command::Mws { flags, .. } = &mut cmd {
                // Within the chain, only the first read initializes S
                // (inverse reads initialize implicitly).
                flags.init_s = i == 0;
            }
            commands.push(cmd);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use fc_nand::geometry::WlAddr;

    fn placement(n: usize) -> PlacementMap {
        let mut m = PlacementMap::new();
        for i in 0..n {
            // Scatter operands over blocks — ParaBit does not care.
            m.insert(i, WlAddr::new(0, (i % 4) as u32, (i / 4) as u32), false);
        }
        m
    }

    #[test]
    fn and_chain_costs_one_sense_per_operand() {
        let m = placement(6);
        let p = compile(&Expr::and_vars(0..6).to_nnf(), &m).unwrap();
        assert_eq!(p.sense_count(), 6);
        // Only the last command transfers.
        let transfers: Vec<bool> = p
            .commands
            .iter()
            .map(|c| matches!(c, Command::Mws { flags, .. } if flags.transfer))
            .collect();
        assert_eq!(transfers.iter().filter(|&&t| t).count(), 1);
        assert!(transfers[5]);
    }

    #[test]
    fn or_chain_transfers_after_every_sense() {
        let m = placement(4);
        let p = compile(&Expr::or_vars(0..4).to_nnf(), &m).unwrap();
        assert_eq!(p.sense_count(), 4);
        for c in &p.commands {
            match c {
                Command::Mws { flags, targets } => {
                    assert!(flags.init_s && flags.transfer);
                    assert_eq!(targets.len(), 1);
                    assert_eq!(targets[0].wl_count(), 1, "ParaBit senses one WL at a time");
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn or_of_ands_is_supported() {
        let m = placement(6);
        let e = Expr::or(vec![Expr::and_vars(0..3), Expr::and_vars(3..6)]);
        let p = compile(&e.to_nnf(), &m).unwrap();
        assert_eq!(p.sense_count(), 6);
    }

    #[test]
    fn single_complement_leads_the_chain() {
        let m = placement(3);
        let e = Expr::and(vec![Expr::not(Expr::var(0)), Expr::var(1), Expr::var(2)]);
        let p = compile(&e.to_nnf(), &m).unwrap();
        match &p.commands[0] {
            Command::Mws { flags, .. } => assert!(flags.inverse, "complement read must lead"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn two_complements_are_rejected() {
        let m = placement(3);
        let e = Expr::and(vec![Expr::not(Expr::var(0)), Expr::not(Expr::var(1)), Expr::var(2)]);
        assert!(matches!(compile(&e.to_nnf(), &m).unwrap_err(), PlanError::Unplannable(_)));
    }

    #[test]
    fn xor_uses_the_latch_xor_logic() {
        let m = placement(2);
        let p = compile(&Expr::xor(Expr::var(0), Expr::var(1)).to_nnf(), &m).unwrap();
        assert_eq!(p.sense_count(), 2);
        assert!(matches!(p.commands[2], Command::XorLatch { .. }));
    }
}
