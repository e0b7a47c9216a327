use super::*;

fn argv(s: &str) -> Vec<String> {
    s.split_whitespace().map(str::to_string).collect()
}

#[test]
fn parse_serve_defaults_and_flags() {
    assert_eq!(
        parse(&argv("serve tiny")).unwrap(),
        Command::Serve {
            net: "tiny".into(),
            seed: 2019,
            requests: 32,
            rate_x: 1.5,
            chaos: false,
            listen: None,
            for_secs: 5,
            json: None,
        }
    );
    let cmd = parse(&argv(
        "serve alexnet --seed 7 --requests 64 --rate-x 2.0 --chaos \
         --listen 127.0.0.1:0 --for-secs 2 --json out.json",
    ))
    .unwrap();
    assert_eq!(
        cmd,
        Command::Serve {
            net: "alexnet".into(),
            seed: 7,
            requests: 64,
            rate_x: 2.0,
            chaos: true,
            listen: Some("127.0.0.1:0".into()),
            for_secs: 2,
            json: Some("out.json".into()),
        }
    );
}

#[test]
fn parse_analyze() {
    assert_eq!(
        parse(&argv("analyze vgg16")).unwrap(),
        Command::Analyze {
            net: "vgg16".into()
        }
    );
}

#[test]
fn parse_simulate_with_overrides() {
    let cmd = parse(&argv(
        "simulate tiny --n-cu 2 --s-ec 16 --freq 150 --parallel 4",
    ))
    .unwrap();
    match cmd {
        Command::Simulate {
            net,
            config,
            parallelism,
            telemetry,
            report,
            trace_out,
            isa,
        } => {
            assert_eq!(net, "tiny");
            assert_eq!(config.n_cu, 2);
            assert_eq!(config.s_ec, 16);
            assert_eq!(config.freq_mhz, 150.0);
            assert_eq!(config.n_knl, 14); // default preserved
            assert_eq!(parallelism, Parallelism::Threads(4));
            assert!(!telemetry && !report);
            assert_eq!(trace_out, None);
            assert_eq!(isa, None);
        }
        other => panic!("wrong command {other:?}"),
    }
}

#[test]
fn parse_simulate_telemetry_flags() {
    // Boolean flags take no value and mix freely with valued ones.
    let cmd = parse(&argv(
        "simulate tiny --telemetry --n-cu 2 --report --trace-out /tmp/t.json",
    ))
    .unwrap();
    match cmd {
        Command::Simulate {
            config,
            telemetry,
            report,
            trace_out,
            ..
        } => {
            assert_eq!(config.n_cu, 2);
            assert!(telemetry && report);
            assert_eq!(trace_out.as_deref(), Some("/tmp/t.json"));
        }
        other => panic!("wrong command {other:?}"),
    }
}

#[test]
fn parse_rejects_invalid_config() {
    // s_ec 18 not divisible by n 4.
    let e = parse(&argv("simulate tiny --s-ec 18")).unwrap_err();
    assert!(e.to_string().contains("divide"));
}

#[test]
fn parse_explore_device() {
    let cmd = parse(&argv("explore alexnet --device arria10")).unwrap();
    match cmd {
        Command::Explore { device, .. } => assert_eq!(device.name, "Arria-10 GX1150"),
        other => panic!("wrong command {other:?}"),
    }
}

#[test]
fn parse_infer_engine_and_seed() {
    let cmd = parse(&argv(
        "infer tiny --engine dense --seed 7 --batch 3 --parallel serial",
    ))
    .unwrap();
    assert_eq!(
        cmd,
        Command::Infer {
            net: "tiny".into(),
            engine: Engine::Dense,
            seed: 7,
            batch: 3,
            parallelism: Parallelism::Serial,
            isa: None,
        }
    );
    // Defaults: single image, auto parallelism.
    let cmd = parse(&argv("infer tiny")).unwrap();
    assert_eq!(
        cmd,
        Command::Infer {
            net: "tiny".into(),
            engine: Engine::Abm,
            seed: 2019,
            batch: 1,
            parallelism: Parallelism::Auto,
            isa: None,
        }
    );
}

#[test]
fn parse_isa_pins() {
    let cmd = parse(&argv("infer tiny --isa scalar")).unwrap();
    assert!(matches!(
        cmd,
        Command::Infer {
            isa: Some(Isa::Scalar),
            ..
        }
    ));
    let cmd = parse(&argv("simulate tiny --isa avx2")).unwrap();
    assert!(matches!(
        cmd,
        Command::Simulate {
            isa: Some(Isa::Avx2),
            ..
        }
    ));
    // `auto` is the explicit spelling of the default.
    let cmd = parse(&argv("infer tiny --isa auto")).unwrap();
    assert!(matches!(cmd, Command::Infer { isa: None, .. }));
    assert!(parse(&argv("infer tiny --isa sse9"))
        .unwrap_err()
        .to_string()
        .contains("unknown ISA"));
}

#[test]
fn parse_verify() {
    assert_eq!(
        parse(&argv("verify tiny")).unwrap(),
        Command::Verify {
            net: "tiny".into(),
            seed: 2019
        }
    );
    assert_eq!(
        parse(&argv("verify alexnet --seed 7")).unwrap(),
        Command::Verify {
            net: "alexnet".into(),
            seed: 7
        }
    );
    assert!(parse(&argv("verify tiny --batch 2")).is_err());
}

#[test]
fn parse_faults() {
    assert_eq!(
        parse(&argv("faults tiny")).unwrap(),
        Command::Faults {
            net: "tiny".into(),
            seed: 2019,
            trials: 1,
            json: None,
            trace_out: None,
        }
    );
    assert_eq!(
        parse(&argv("faults alexnet --seed 7 --trials 3 --json r.json")).unwrap(),
        Command::Faults {
            net: "alexnet".into(),
            seed: 7,
            trials: 3,
            json: Some("r.json".into()),
            trace_out: None,
        }
    );
}

#[test]
fn execute_faults_tiny_is_clean_and_writes_reports() {
    let json_path = std::env::temp_dir().join("abm_cli_faults_test.json");
    let trace_path = std::env::temp_dir().join("abm_cli_faults_trace_test.json");
    execute(&Command::Faults {
        net: "tiny".into(),
        seed: 3,
        trials: 1,
        json: Some(json_path.to_string_lossy().into_owned()),
        trace_out: Some(trace_path.to_string_lossy().into_owned()),
    })
    .unwrap();
    let report = abm_telemetry::json::parse(&std::fs::read_to_string(&json_path).unwrap());
    let clean = report.unwrap().get("clean").cloned();
    assert_eq!(clean, Some(abm_telemetry::json::Value::Bool(true)));
    let trace = std::fs::read_to_string(&trace_path).unwrap();
    abm_telemetry::json::validate(&trace).unwrap();
    assert!(trace.contains("fault"), "fault track missing from trace");
    std::fs::remove_file(&json_path).ok();
    std::fs::remove_file(&trace_path).ok();
}

#[test]
fn parse_metrics() {
    assert_eq!(
        parse(&argv("metrics tiny")).unwrap(),
        Command::Metrics {
            net: "tiny".into(),
            seed: 2019,
            batch: 4,
            parallelism: Parallelism::Auto,
            json: None,
            prom: None,
        }
    );
    assert_eq!(
        parse(&argv(
            "metrics alexnet --seed 7 --batch 2 --parallel serial --json m.json --prom m.prom"
        ))
        .unwrap(),
        Command::Metrics {
            net: "alexnet".into(),
            seed: 7,
            batch: 2,
            parallelism: Parallelism::Serial,
            json: Some("m.json".into()),
            prom: Some("m.prom".into()),
        }
    );
    assert!(parse(&argv("metrics tiny --trials 2")).is_err());
}

#[test]
fn execute_metrics_tiny_writes_valid_snapshots() {
    let json_path = std::env::temp_dir().join("abm_cli_metrics_test.json");
    let prom_path = std::env::temp_dir().join("abm_cli_metrics_test.prom");
    execute(&Command::Metrics {
        net: "tiny".into(),
        seed: 3,
        batch: 2,
        parallelism: Parallelism::Serial,
        json: Some(json_path.to_string_lossy().into_owned()),
        prom: Some(prom_path.to_string_lossy().into_owned()),
    })
    .unwrap();
    let snap = std::fs::read_to_string(&json_path).unwrap();
    abm_telemetry::json::validate(&snap).unwrap();
    assert!(snap.contains("infer_image_ns"), "snapshot: {snap}");
    let prom = std::fs::read_to_string(&prom_path).unwrap();
    assert!(prom.contains("# TYPE"));
    assert!(prom.contains("sim_compute_cycles_total"));
    std::fs::remove_file(&json_path).ok();
    std::fs::remove_file(&prom_path).ok();
}

#[test]
fn dispatch_groups_fold_repeated_variants() {
    let events = vec![
        abm_telemetry::Event::KernelDispatch {
            layer: 0,
            isa: "avx2".into(),
            acc: "i32".into(),
            lanes: 8,
        },
        abm_telemetry::Event::KernelDispatch {
            layer: 1,
            isa: "avx2".into(),
            acc: "i32".into(),
            lanes: 8,
        },
        abm_telemetry::Event::KernelDispatch {
            layer: 2,
            isa: "avx2".into(),
            acc: "i64".into(),
            lanes: 8,
        },
    ];
    let groups = dispatch_groups(&events);
    assert_eq!(
        groups,
        vec![("avx2/i32".into(), 8, 2), ("avx2/i64".into(), 8, 1)]
    );
    assert_eq!(
        render_dispatch(&groups),
        "avx2/i32 x2 (8 lanes), avx2/i64 x1 (8 lanes)"
    );
}

#[test]
fn execute_verify_tiny_is_defect_free() {
    execute(&Command::Verify {
        net: "tiny".into(),
        seed: 1,
    })
    .unwrap();
}

#[test]
fn parse_pipeline() {
    assert_eq!(
        parse(&argv("pipeline tiny")).unwrap(),
        Command::Pipeline {
            net: "tiny".into(),
            seed: 2019,
            batch: 8,
            device: FpgaDevice::stratix_v_gxa7(),
        }
    );
    assert_eq!(
        parse(&argv("pipeline vgg16 --seed 5 --batch 4 --device arria10")).unwrap(),
        Command::Pipeline {
            net: "vgg16".into(),
            seed: 5,
            batch: 4,
            device: FpgaDevice::arria10_gx1150(),
        }
    );
}

#[test]
fn execute_pipeline_tiny_selects_a_clean_design() {
    execute(&Command::Pipeline {
        net: "tiny".into(),
        seed: 1,
        batch: 4,
        device: FpgaDevice::stratix_v_gxa7(),
    })
    .unwrap();
}

#[test]
fn parse_errors_are_helpful() {
    let error = |line: &str| parse(&argv(line)).unwrap_err().to_string();
    // The commonest mistakes each get their own answer.
    assert_eq!(error(""), *USAGE);
    assert_eq!(
        error("bogus"),
        format!("unknown command 'bogus'\n{}", *USAGE)
    );
    assert!(error("bogus tiny").starts_with("unknown command 'bogus'"));
    assert_eq!(error("simulate"), "simulate: missing network name");
    assert_eq!(error("analyze resnet"), "unknown network 'resnet'");
    for help in ["-h", "--help"] {
        assert_eq!(parse(&argv(help)).unwrap(), Command::Help);
    }
    // Flag errors name the flag.
    assert_eq!(error("simulate tiny --n-cu"), "flag --n-cu needs a value");
    assert!(error("infer tiny --seed x").starts_with("--seed: bad number 'x'"));
    assert!(error("infer tiny --batch 0").starts_with("--batch: bad number '0'"));
    assert!(error("infer tiny --parallel warp").starts_with("--parallel: bad parallelism"));
    // A flag another command declares is still unknown here.
    assert_eq!(error("verify tiny --batch 2"), "unknown flag --batch");
    assert_eq!(error("analyze tiny --seed 1"), "unknown flag --seed");
}

#[test]
fn non_finite_numbers_are_rejected() {
    // `NaN <= 0.0` is false: these used to pass validation and print
    // `@ NaN MHz ... 0.00 ms/image`.
    for line in [
        "simulate tiny --freq nan",
        "simulate tiny --freq inf",
        "simulate tiny --freq -1",
        "serve tiny --rate-x nan",
        "serve tiny --rate-x inf",
        "serve tiny --rate-x 0",
    ] {
        let e = parse(&argv(line)).unwrap_err().to_string();
        let flag = line.split(' ').nth(2).unwrap();
        assert!(e.starts_with(&format!("{flag}: bad number")), "{line}: {e}");
    }
}

/// The flags that must refuse a zero, named here rather than read off
/// the tables so that a `positive` turning into `uint` fails a test: a
/// campaign of zero trials would pass its zero-silent-corruption gate
/// having run nothing. Counts and rates are refused by their value kind,
/// `simulate`'s design parameters by `AcceleratorConfig::validate`.
const REFUSES_ZERO: [(&str, &str); 15] = [
    ("simulate", "--n-cu"),
    ("simulate", "--n-knl"),
    ("simulate", "--n"),
    ("simulate", "--s-ec"),
    ("simulate", "--freq"),
    ("simulate", "--parallel"),
    ("infer", "--batch"),
    ("infer", "--parallel"),
    ("faults", "--trials"),
    ("pipeline", "--batch"),
    ("metrics", "--batch"),
    ("metrics", "--parallel"),
    ("serve", "--requests"),
    ("serve", "--rate-x"),
    ("serve", "--for-secs"),
];

/// The flag table is the contract: for every subcommand, every declared
/// flag is in the generated usage, reaches a field of its own in the
/// parsed [`Command`], and fails by name when its value is missing or
/// bad; zero is refused by exactly [`REFUSES_ZERO`]; anything undeclared
/// is an unknown flag.
#[test]
fn flag_table_is_the_contract() {
    for sub in SUBCOMMANDS {
        let line = flags::usage_line(sub.name, "<net>", sub.flags);
        if sub.name != SUBCOMMANDS[0].name {
            assert!(USAGE.contains(&line), "{line}");
        }
        let with = |extra: &[&str]| {
            let mut args = argv(&format!("{} tiny", sub.name));
            args.extend(extra.iter().map(|s| s.to_string()));
            parse(&args)
        };
        let mut seen = vec![with(&[]).unwrap()];
        for f in sub.flags {
            let shown = match f.usage {
                "" => format!("[{}]", f.name),
                usage => format!("[{} {usage}]", f.name),
            };
            assert!(line.contains(&shown), "{}: {shown} not in usage", sub.name);

            // Some value the usage text offers — one of its spelled-out
            // alternatives, a number, a path — must move the command off
            // its default, and not onto what another flag produces.
            let given = |v: &str| match f.usage {
                "" => with(&[f.name]),
                _ => with(&[f.name, v]),
            };
            let cmd = (f.usage.split('|').chain(["3", "2.5", "8", "5"]))
                .filter_map(|v| given(v).ok())
                .find(|cmd| !seen.contains(cmd))
                .unwrap_or_else(|| panic!("{} {}: no field of its own", sub.name, f.name));
            seen.push(cmd);

            if f.usage.is_empty() {
                continue;
            }
            let e = with(&[f.name]).unwrap_err().to_string();
            assert_eq!(e, format!("flag {} needs a value", f.name));
            // Free text accepts anything; every other value kind must
            // refuse this, naming the flag and the value.
            match with(&[f.name, "?!"]) {
                Err(e) => {
                    let e = e.to_string();
                    assert!(
                        e.starts_with(&format!("{}: ", f.name)) && e.contains("?!"),
                        "{e}"
                    );
                }
                Ok(_) => assert!(["PATH", "ADDR"].contains(&f.usage), "{} took '?!'", f.name),
            }
            // Every flag that takes a number says what it does with zero.
            if given("1").is_ok() && !["PATH", "ADDR"].contains(&f.usage) {
                let refuses = REFUSES_ZERO.contains(&(sub.name, f.name));
                let zero = given("0");
                assert_eq!(zero.is_err(), refuses, "{} {} 0", sub.name, f.name);
            }
        }
        let e = with(&["--bogus", "1"]).unwrap_err().to_string();
        assert_eq!(e, "unknown flag --bogus");
    }
}

#[test]
fn execute_fast_paths() {
    // tiny-network commands complete quickly and without error.
    execute(&Command::Help).unwrap();
    execute(&Command::Analyze { net: "tiny".into() }).unwrap();
    execute(&Command::Simulate {
        net: "tiny".into(),
        config: AcceleratorConfig::paper(),
        parallelism: Parallelism::Serial,
        telemetry: false,
        report: false,
        trace_out: None,
        isa: None,
    })
    .unwrap();
    execute(&Command::Infer {
        net: "tiny".into(),
        engine: Engine::Abm,
        seed: 1,
        batch: 4,
        parallelism: Parallelism::Threads(2),
        isa: None,
    })
    .unwrap();
    execute(&Command::Explore {
        net: "tiny".into(),
        device: FpgaDevice::stratix_v_gxa7(),
    })
    .unwrap();
}

#[test]
fn execute_simulate_with_telemetry_outputs() {
    let trace_path = std::env::temp_dir().join("abm_cli_trace_test.json");
    execute(&Command::Simulate {
        net: "tiny".into(),
        config: AcceleratorConfig::paper(),
        parallelism: Parallelism::Serial,
        telemetry: true,
        report: true,
        trace_out: Some(trace_path.to_string_lossy().into_owned()),
        isa: None,
    })
    .unwrap();
    let trace = std::fs::read_to_string(&trace_path).unwrap();
    abm_telemetry::json::validate(&trace).unwrap();
    std::fs::remove_file(&trace_path).ok();
}

#[test]
fn lookup_covers_every_parseable_network() {
    for net in ["vgg16", "vgg19", "alexnet", "tiny"] {
        let (network, _) = lookup(net);
        assert!(network.conv_fc_layers().count() > 0, "{net}");
    }
}
