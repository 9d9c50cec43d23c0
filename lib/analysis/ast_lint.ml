open Rapida_rdf
module Ast = Rapida_sparql.Ast
module Star = Rapida_sparql.Star
module Lexer = Rapida_sparql.Lexer
module Parser = Rapida_sparql.Parser
module Srcloc = Rapida_sparql.Srcloc
module Analytical = Rapida_sparql.Analytical

(* ------------------------------------------------------------------ *)
(* Source index: spans recovered from the token stream.                *)

type index = {
  var_spans : (string * Srcloc.span) list;  (* first occurrence *)
  prefix_decls : (string * Srcloc.span) list;  (* declaration order, dups kept *)
  prefix_uses : string list;  (* distinct prefixes of body qnames *)
}

let token_span ~line ~col ~len =
  Srcloc.span_of_token (Srcloc.pos ~line ~col) ~len

let index_of_tokens toks =
  let var_spans = ref [] and decls = ref [] and uses = ref [] in
  let rec go = function
    | [] -> ()
    | { Lexer.tok = Lexer.KEYWORD "PREFIX"; _ }
      :: { Lexer.tok = Lexer.QNAME q; line; col }
      :: rest ->
      let name =
        match String.index_opt q ':' with
        | Some i -> String.sub q 0 i
        | None -> q
      in
      decls := (name, token_span ~line ~col ~len:(String.length q)) :: !decls;
      go
        (match rest with
        | { Lexer.tok = Lexer.IRIREF _; _ } :: r -> r
        | r -> r)
    | { Lexer.tok = Lexer.VAR v; line; col } :: rest ->
      if not (List.mem_assoc v !var_spans) then
        var_spans :=
          (v, token_span ~line ~col ~len:(String.length v + 1)) :: !var_spans;
      go rest
    | { Lexer.tok = Lexer.QNAME q; _ } :: rest ->
      (match String.index_opt q ':' with
      | Some i when i > 0 ->
        let p = String.sub q 0 i in
        if not (List.mem p !uses) then uses := p :: !uses
      | _ -> ());
      go rest
    | _ :: rest -> go rest
  in
  go toks;
  {
    var_spans = List.rev !var_spans;
    prefix_decls = List.rev !decls;
    prefix_uses = List.rev !uses;
  }

let var_span index v = List.assoc_opt v index.var_spans

(* ------------------------------------------------------------------ *)
(* AST helpers.                                                        *)

let rec triples_of elts =
  List.concat_map
    (function
      | Ast.Ptriple tp -> [ tp ]
      | Ast.Poptional inner -> triples_of inner
      | Ast.Pfilter _ | Ast.Psub _ -> [])
    elts

let subselects elts =
  List.filter_map (function Ast.Psub s -> Some s | _ -> None) elts

let filters_of elts =
  List.filter_map (function Ast.Pfilter e -> Some e | _ -> None) elts

let dedup xs =
  List.rev
    (List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc) [] xs)

(* Free variables outside aggregate calls — the ones aggregation scope
   rules apply to. *)
let rec nonagg_vars = function
  | Ast.Evar v -> [ v ]
  | Ast.Eterm _ -> []
  | Ast.Ebin (_, a, b) -> nonagg_vars a @ nonagg_vars b
  | Ast.Enot e -> nonagg_vars e
  | Ast.Eagg _ -> []
  | Ast.Eregex (e, _, _) -> nonagg_vars e

let rec expr_has_agg = function
  | Ast.Eagg _ -> true
  | Ast.Ebin (_, a, b) -> expr_has_agg a || expr_has_agg b
  | Ast.Enot e | Ast.Eregex (e, _, _) -> expr_has_agg e
  | Ast.Evar _ | Ast.Eterm _ -> false

let projection_names projection =
  List.map (function Ast.Svar v -> v | Ast.Sexpr (_, v) -> v) projection

let rec output_vars (s : Ast.select) =
  if s.projection = [] then bound_vars s else projection_names s.projection

and bound_vars (s : Ast.select) =
  let tv = List.concat_map Ast.pattern_vars (triples_of s.where) in
  let sv = List.concat_map output_vars (subselects s.where) in
  dedup (tv @ sv)

(* ------------------------------------------------------------------ *)
(* Constant folding of filter expressions.                             *)

type const = Cnum of float | Cstr of string | Cbool of bool

let const_of_term (t : Term.t) =
  match t with
  | Term.Literal { lex; datatype = Term.Dboolean } -> Some (Cbool (lex = "true"))
  | _ -> (
    match Term.as_number t with
    | Some f -> Some (Cnum f)
    | None -> Some (Cstr (Term.lexical t)))

let fold_cmp op (a : const) (b : const) =
  let decide c =
    Some
      (Cbool
         (match op with
         | Ast.Eq -> c = 0
         | Ast.Ne -> c <> 0
         | Ast.Lt -> c < 0
         | Ast.Le -> c <= 0
         | Ast.Gt -> c > 0
         | Ast.Ge -> c >= 0
         | _ -> assert false))
  in
  match (a, b) with
  | Cnum x, Cnum y -> decide (Float.compare x y)
  | Cstr x, Cstr y -> decide (String.compare x y)
  | Cbool x, Cbool y -> (
    match op with
    | Ast.Eq -> Some (Cbool (x = y))
    | Ast.Ne -> Some (Cbool (x <> y))
    | _ -> None)
  | _ -> None

let rec fold_expr (e : Ast.expr) : const option =
  match e with
  | Ast.Eterm t -> const_of_term t
  | Ast.Evar _ | Ast.Eagg _ -> None
  | Ast.Eregex _ -> None
  | Ast.Enot e -> (
    match fold_expr e with Some (Cbool b) -> Some (Cbool (not b)) | _ -> None)
  | Ast.Ebin (op, a, b) -> (
    let fa = fold_expr a and fb = fold_expr b in
    match op with
    | Ast.And -> (
      match (fa, fb) with
      | Some (Cbool false), _ | _, Some (Cbool false) -> Some (Cbool false)
      | Some (Cbool true), Some (Cbool true) -> Some (Cbool true)
      | _ -> None)
    | Ast.Or -> (
      match (fa, fb) with
      | Some (Cbool true), _ | _, Some (Cbool true) -> Some (Cbool true)
      | Some (Cbool false), Some (Cbool false) -> Some (Cbool false)
      | _ -> None)
    | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge -> (
      match (fa, fb) with Some ca, Some cb -> fold_cmp op ca cb | _ -> None)
    | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div -> (
      match (fa, fb) with
      | Some (Cnum x), Some (Cnum y) ->
        Some
          (Cnum
             (match op with
             | Ast.Add -> x +. y
             | Ast.Sub -> x -. y
             | Ast.Mul -> x *. y
             | _ -> x /. y))
      | _ -> None))

(* Interval analysis of a single FILTER's conjunction: collect numeric
   bounds per variable into the shared {!Interval.Num} domain and detect
   empty constraint sets. *)

type bounds = {
  mutable iv : Interval.Num.t;
  mutable eqs : float list;
  mutable nes : float list;
}

let rec conj_atoms = function
  | Ast.Ebin (Ast.And, a, b) -> conj_atoms a @ conj_atoms b
  | e -> [ e ]

(* The per-variable numeric constraints of a conjunction, as (variable,
   interval, equalities, disequalities). Exposed to the cost analyzer so
   FILTER selectivity can meet these intervals against the catalog's
   literal-range sketches. *)
let conj_constraints e =
  let tbl : (string, bounds) Hashtbl.t = Hashtbl.create 4 in
  let bounds_for v =
    match Hashtbl.find_opt tbl v with
    | Some b -> b
    | None ->
      let b = { iv = Interval.Num.full; eqs = []; nes = [] } in
      Hashtbl.add tbl v b;
      b
  in
  let record v op x =
    let b = bounds_for v in
    match op with
    | Ast.Eq -> b.eqs <- x :: b.eqs
    | Ast.Ne -> b.nes <- x :: b.nes
    | Ast.Lt -> b.iv <- Interval.Num.tighten_hi b.iv x true
    | Ast.Le -> b.iv <- Interval.Num.tighten_hi b.iv x false
    | Ast.Gt -> b.iv <- Interval.Num.tighten_lo b.iv x true
    | Ast.Ge -> b.iv <- Interval.Num.tighten_lo b.iv x false
    | _ -> ()
  in
  let flip = function
    | Ast.Lt -> Ast.Gt
    | Ast.Le -> Ast.Ge
    | Ast.Gt -> Ast.Lt
    | Ast.Ge -> Ast.Le
    | op -> op
  in
  List.iter
    (fun atom ->
      match atom with
      | Ast.Ebin (op, Ast.Evar v, Ast.Eterm t) -> (
        match Term.as_number t with Some x -> record v op x | None -> ())
      | Ast.Ebin (op, Ast.Eterm t, Ast.Evar v) -> (
        match Term.as_number t with Some x -> record v (flip op) x | None -> ())
      | _ -> ())
    (conj_atoms e);
  Hashtbl.fold (fun v b acc -> (v, b.iv, b.eqs, b.nes) :: acc) tbl []

let filter_always_false e =
  match fold_expr e with
  | Some (Cbool false) -> true
  | _ -> false

let unsat_conjunction e =
  List.fold_left
    (fun acc (v, iv, eqs, nes) ->
      match acc with
      | Some _ -> acc
      | None ->
        let eq_conflict =
          (match eqs with
          | x :: rest -> List.exists (fun y -> y <> x) rest
          | [] -> false)
          || List.exists (fun x -> not (Interval.Num.mem x iv)) eqs
          || List.exists (fun x -> List.mem x nes) eqs
        in
        if Interval.Num.is_empty iv || eq_conflict then Some v else None)
    None (conj_constraints e)

(* ------------------------------------------------------------------ *)
(* The rules.                                                          *)

let span_for index vars =
  match vars with
  | v :: _ -> var_span index v
  | [] -> None

let lint_filter index acc f =
  match fold_expr f with
  | Some (Cbool false) ->
    Diagnostic.warningf
      ?span:(span_for index (nonagg_vars f))
      ~rule:"filter-unsatisfiable"
      "FILTER %a is always false: no solution can satisfy it" Ast.pp_expr f
    :: acc
  | Some (Cbool true) ->
    Diagnostic.warningf
      ?span:(span_for index (nonagg_vars f))
      ~rule:"filter-constant" "FILTER %a is always true and can be removed"
      Ast.pp_expr f
    :: acc
  | Some _ ->
    Diagnostic.warningf
      ?span:(span_for index (nonagg_vars f))
      ~rule:"filter-constant"
      "FILTER %a evaluates to a non-boolean constant" Ast.pp_expr f
    :: acc
  | None -> (
    match unsat_conjunction f with
    | Some v ->
      Diagnostic.warningf ?span:(var_span index v) ~rule:"filter-unsatisfiable"
        "FILTER %a is unsatisfiable: the bounds on ?%s describe an empty \
         interval"
        Ast.pp_expr f v
      :: acc
    | None -> acc)

let rec lint_select index (s : Ast.select) acc =
  let bound = bound_vars s in
  let outputs = output_vars s in
  let filters = filters_of s.where in
  let triples = triples_of s.where in
  let acc =
    List.fold_left (fun acc sub -> lint_select index sub acc) acc
      (subselects s.where)
  in
  let unbound ~where acc v =
    if List.mem v bound then acc
    else
      Diagnostic.errorf ?span:(var_span index v) ~rule:"unbound-var"
        "variable ?%s is used in %s but never bound by the pattern" v where
      :: acc
  in
  let unbound_or_output ~where acc v =
    if List.mem v outputs then acc else unbound ~where acc v
  in
  (* unbound-var *)
  let acc =
    List.fold_left
      (fun acc item ->
        match item with
        | Ast.Svar v -> unbound ~where:"the projection" acc v
        | Ast.Sexpr (e, _) ->
          let acc =
            List.fold_left (unbound ~where:"the projection") acc
              (dedup (nonagg_vars e))
          in
          List.fold_left
            (unbound ~where:"an aggregate argument")
            acc
            (dedup (List.filter (fun v -> not (List.mem v (nonagg_vars e)))
                      (Ast.expr_vars e))))
      acc s.projection
  in
  let acc =
    List.fold_left
      (fun acc f ->
        List.fold_left (unbound ~where:"a FILTER") acc (dedup (Ast.expr_vars f)))
      acc filters
  in
  let acc = List.fold_left (unbound ~where:"GROUP BY") acc (dedup s.group_by) in
  let acc =
    List.fold_left
      (fun acc h ->
        List.fold_left (unbound_or_output ~where:"HAVING") acc
          (dedup (Ast.expr_vars h)))
      acc s.having
  in
  let acc =
    List.fold_left
      (fun acc o ->
        let v = match o with Ast.Asc v | Ast.Desc v -> v in
        unbound_or_output ~where:"ORDER BY" acc v)
      acc s.order_by
  in
  (* ungrouped-projection *)
  let aggregated =
    s.group_by <> []
    || List.exists
         (function Ast.Sexpr (e, _) -> expr_has_agg e | Ast.Svar _ -> false)
         s.projection
  in
  let acc =
    if not aggregated then acc
    else
      List.fold_left
        (fun acc item ->
          let offenders =
            match item with
            | Ast.Svar v -> if List.mem v s.group_by then [] else [ v ]
            | Ast.Sexpr (e, _) ->
              List.filter (fun v -> not (List.mem v s.group_by))
                (dedup (nonagg_vars e))
          in
          List.fold_left
            (fun acc v ->
              Diagnostic.errorf ?span:(var_span index v)
                ~rule:"ungrouped-projection"
                "?%s is projected from an aggregated SELECT but is not a \
                 GROUP BY key"
                v
              :: acc)
            acc offenders)
        acc s.projection
  in
  (* filter-unsatisfiable / filter-constant *)
  let acc = List.fold_left (lint_filter index) acc filters in
  (* cartesian-product *)
  let acc =
    let stars = Star.decompose triples in
    if List.length stars >= 2 && not (Star.connected stars (Star.edges stars))
    then
      Diagnostic.warningf
        ?span:(span_for index (List.concat_map Ast.pattern_vars triples))
        ~rule:"cartesian-product"
        "the star-join graph is disconnected (%d stars): evaluation forms a \
         cartesian product"
        (List.length stars)
      :: acc
    else acc
  in
  (* duplicate-pattern *)
  let acc =
    let rec dups seen acc = function
      | [] -> acc
      | tp :: rest ->
        let acc =
          if List.mem tp seen then
            Diagnostic.warningf
              ?span:(span_for index (Ast.pattern_vars tp))
              ~rule:"duplicate-pattern"
              "triple pattern %a appears more than once" Ast.pp_triple_pattern
              tp
            :: acc
          else acc
        in
        dups (tp :: seen) acc rest
    in
    dups [] acc triples
  in
  (* unused-var *)
  let occurrences v =
    let in_triples =
      List.length
        (List.filter (fun x -> x = v) (List.concat_map Ast.pattern_vars triples))
    in
    let in_exprs =
      List.length
        (List.filter (fun x -> x = v)
           (List.concat_map Ast.expr_vars (filters @ s.having)
           @ List.concat_map
               (function Ast.Svar x -> [ x ] | Ast.Sexpr (e, _) -> Ast.expr_vars e)
               s.projection
           @ s.group_by
           @ List.map (function Ast.Asc x | Ast.Desc x -> x) s.order_by))
    in
    in_triples + in_exprs
  in
  let triple_bound = dedup (List.concat_map Ast.pattern_vars triples) in
  List.fold_left
    (fun acc v ->
      if occurrences v = 1 then
        Diagnostic.infof ?span:(var_span index v) ~rule:"unused-var"
          "?%s is bound but never used: the triple only asserts the \
           property's existence"
          v
        :: acc
      else acc)
    acc triple_bound

let lint_prefixes index =
  let rec dup_decls seen acc = function
    | [] -> acc
    | (name, span) :: rest ->
      let acc =
        if List.mem name seen then
          Diagnostic.warningf ~span ~rule:"duplicate-prefix"
            "PREFIX %s: is declared more than once" name
          :: acc
        else acc
      in
      dup_decls (name :: seen) acc rest
  in
  let acc = dup_decls [] [] index.prefix_decls in
  List.fold_left
    (fun acc (name, span) ->
      if List.mem name index.prefix_uses then acc
      else
        Diagnostic.warningf ~span ~rule:"unused-prefix"
          "PREFIX %s: is declared but never used" name
        :: acc)
    acc
    (dedup index.prefix_decls)

let lint_source src =
  match Lexer.tokenize src with
  | Error e ->
    [
      Diagnostic.errorf
        ~span:(Srcloc.span_of_token e.Lexer.pos ~len:1)
        ~rule:"parse-error" "%s" e.Lexer.reason;
    ]
  | Ok toks -> (
    let index = index_of_tokens toks in
    let prefix_ds = lint_prefixes index in
    match Parser.parse_located src with
    | Error e ->
      Diagnostic.sort
        (Diagnostic.errorf
           ?span:(Option.map (fun p -> Srcloc.span_of_token p ~len:1) e.Parser.pos)
           ~rule:"parse-error" "%s" e.Parser.reason
        :: prefix_ds)
    | Ok q ->
      let form =
        match Analytical.of_query q with
        | Ok _ -> []
        | Error msg ->
          [
            Diagnostic.errorf ~rule:"analytical-form"
              "query is outside the analytical fragment: %s" msg;
          ]
      in
      Diagnostic.sort (lint_select index q.base_select [] @ prefix_ds @ form))
