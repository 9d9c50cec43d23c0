open Rapida_rdf
open Rapida_sparql

type node = Const of Term.t | Slot of int

type pattern = {
  s : node;
  p : node;
  o : node;
  slots : int list;  (** distinct slots of [s], [p], [o] *)
}

type star = { part : int; patterns : pattern list }

type t = { vars : Ast.var array; stars : star list }

let compile stars =
  let vars = ref [] and n = ref 0 in
  let slot_of v =
    match List.assoc_opt v !vars with
    | Some i -> i
    | None ->
      let i = !n in
      vars := (v, i) :: !vars;
      incr n;
      i
  in
  let node = function Ast.Nterm t -> Const t | Ast.Nvar v -> Slot (slot_of v) in
  let pattern (tp : Ast.triple_pattern) =
    let s = node tp.tp_s in
    let p = node tp.tp_p in
    let o = node tp.tp_o in
    let slots =
      List.sort_uniq Int.compare
        (List.filter_map (function Slot i -> Some i | Const _ -> None) [ s; p; o ])
    in
    { s; p; o; slots }
  in
  let stars =
    List.map
      (fun (part, (star : Star.t)) ->
        { part; patterns = List.map pattern star.patterns })
      stars
  in
  let names = Array.make !n "" in
  List.iter (fun (v, i) -> names.(i) <- v) !vars;
  { vars = names; stars }

let slot t v =
  let rec go i =
    if i = Array.length t.vars then None
    else if String.equal t.vars.(i) v then Some i
    else go (i + 1)
  in
  go 0

let const_ok node term =
  match node with Const c -> Term.equal c term | Slot _ -> true

(* The triples of [tg] that agree with the constant nodes of [pat], in
   triplegroup order: computed once per star and triplegroup, not once
   per partial binding. *)
let candidates pat (tg : Triplegroup.t) =
  List.filter
    (fun (tr : Triple.t) ->
      const_ok pat.p tr.p && const_ok pat.s tr.s && const_ok pat.o tr.o)
    tg.triples

let unify b node term =
  match node with
  | Const _ -> true
  | Slot i -> (
    match b.(i) with
    | None ->
      b.(i) <- Some term;
      true
    | Some t -> Term.equal t term)

let iter t (joined : Joined.t) f =
  let levels =
    List.concat_map
      (fun star ->
        match Joined.part joined star.part with
        | None -> []
        | Some tg -> List.map (fun pat -> (pat, candidates pat tg)) star.patterns)
      t.stars
  in
  if not (List.exists (fun (_, cands) -> cands = []) levels) then begin
    let b = Array.make (Array.length t.vars) None in
    (* Depth-first over the patterns; each level unbinds on the way back
       the slots it found unbound. *)
    let rec go = function
      | [] -> f b
      | (pat, cands) :: rest ->
        let fresh = List.filter (fun i -> Option.is_none b.(i)) pat.slots in
        List.iter
          (fun (tr : Triple.t) ->
            if unify b pat.s tr.s && unify b pat.p tr.p && unify b pat.o tr.o
            then go rest;
            List.iter (fun i -> b.(i) <- None) fresh)
          cands
    in
    go levels
  end
