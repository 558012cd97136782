"""Built-in component registry for the D3-class ducted turbine.

JSON-shaped document consumed by schedule.load_registry. Component names,
failure modes, service lives, specifications, and task wording follow the
turbine's published maintenance tables verbatim; an asterisk inside a text
field marks a manufacturer-recommended figure, and manufacturer_specified
flags rows whose service life is manufacturer data.

Tasks whose wording states a period carry that period as their trigger.
Inspection items with no stated period default to an annual calendar
trigger. Counter names: rotor_cycles, yaw_oscillations, tower_stress_cycles
(rate-driven) and jack_cycles (log-driven).
"""


def _cal(years):
    return {"calendar_interval": {"years": years}}


def _cyc(cycles, counter):
    return {"cycle_interval": {"cycles": cycles, "counter": counter}}


def _first(years, cycles, counter):
    return {"whichever_first": {"years": years, "cycles": cycles, "counter": counter}}


def _event(kind):
    return {"event": {"kind": kind}}


def _task(description, trigger):
    return {"description": description, "trigger": trigger}


_BOLT_FAILURE_MODES = ["Loose bolts", "Shearing on nuts", "Bearing on bolts", "Rust/Corrosion"]
_SCREW_FAILURE_MODES = ["Loose screws", "Shear", "Rust/Corrosion"]

_BOLT_TASKS = [
    _task("Inspect", _cal(1)),
    _task("Check torque", _cal(1)),
    _task("Apply anti-rusting agent (as required)", _cal(1)),
    _task("Replace (if necessary)", _cal(1)),
]

_SCREW_TASKS = [
    _task("Inspect", _cal(1)),
    _task("Apply anti-rusting agent (as required)", _cal(1)),
    _task("Replace (if necessary)", _cal(1)),
]


def _fastener(name, family, specifications, manufacturer_specified=False):
    bolt = family == "bolt"
    return {
        "id": name,
        "group": "Fasteners",
        "failure_modes": list(_BOLT_FAILURE_MODES if bolt else _SCREW_FAILURE_MODES),
        "manufacturer_specified": manufacturer_specified,
        "specifications": specifications,
        "tasks": list(_BOLT_TASKS if bolt else _SCREW_TASKS),
    }


DEFAULT_REGISTRY_DOC = {
    "components": [
        # -- structural system -------------------------------------------
        {
            "id": "Ballast Foundation",
            "group": "Structural",
            "failure_modes": ["Corrosion", "Ballast loss", "Loose bolts"],
            "service_life": {"value": 1, "unit": "years"},
            "specifications": ["Maximum wind speed during maintenance: 38 mph*"],
            "tasks": [
                _task(
                    "Inspect ballast and hardware connections annually or upon high load event",
                    _cal(1),
                ),
                _task(
                    "Inspect ballast and hardware connections annually or upon high load event",
                    _event("high_load"),
                ),
                _task("Inspect bolt torques and service according to manual", _cal(1)),
                _task("Top off ballast material every year", _cal(1)),
            ],
        },
        {
            "id": "Tower",
            "group": "Structural",
            "failure_modes": ["Bending from moment", "Fatigue from nacelle imbalance"],
            "service_life": {"value": 5, "unit": "years"},
            "manufacturer_specified": True,
            "specifications": [
                "Max base moment: 55000 ft-lbs*",
                "Survival wind speed: 90 mph (3 sec gust)*",
                "Material: ASTM A572 GR65*",
            ],
            "tasks": [
                _task(
                    "Inspect column deflection, cracks, localized damage, every 5 years",
                    _cal(5),
                ),
                _task("Inspect bolt torques and service according to manual", _cal(1)),
            ],
        },
        {
            "id": "Screw Jack (Pole Raising System)",
            "group": "Structural",
            "failure_modes": [
                "Motor failure from weather exposure",
                "Gearbox damage/wear/corrosion",
                "Pin bending/corrosion",
            ],
            "service_life": {"value": 5, "unit": "years"},
            "manufacturer_specified": True,
            "specifications": ["Max wind speed (during maintenance): 38 mph*"],
            "tasks": [
                _task(
                    "Inspect every 100 cycles or 5 years (whichever comes first)",
                    _first(5, 100, "jack_cycles"),
                ),
                _task("Inspect monthly for visible corrosion", _cal(1 / 12)),
                _task(
                    "Lubricate every 15 cycles or once a year with recommended grease",
                    _first(1, 15, "jack_cycles"),
                ),
                _task("Replace dust cover", _cyc(15, "jack_cycles")),
            ],
        },
        {
            "id": "Standpipe Assembly",
            "group": "Structural",
            "failure_modes": ["Bolt failure", "Shearing", "Corrosion from gasket leakage"],
            "service_life": {"value": 10, "unit": "years"},
            "tasks": [
                _task("Check flange bolt torque", _cal(1)),
                _task("Replace gasket if corroded/worn", _cal(1)),
            ],
        },
        {
            "id": "Hub",
            "group": "Structural",
            "failure_modes": ["Crack formation", "Chipping due to heat and vibration"],
            "service_life": {"value": 10, "unit": "years"},
            "tasks": [_task("Inspect cracks/wear/pitting", _cal(1))],
        },
        {
            "id": "Hub Bushing",
            "group": "Structural",
            "failure_modes": ["Crack formation", "Pitting"],
            "service_life": {"value": 10, "unit": "years"},
            "tasks": [_task("Inspect cracks/wear/pitting", _cal(1))],
        },
        {
            "id": "Blades",
            "group": "Structural",
            "failure_modes": ["Bending", "Shearing", "Impact from flying debris"],
            "service_life": {"value": 75, "unit": "years"},
            "specifications": ["Max operating wind speed: 130 mph"],
            "tasks": [
                _task("Inspect cracks/wear/pitting", _cal(1)),
                _task("Check alignment", _cal(1)),
            ],
        },
        {
            "id": "Nose Cone",
            "group": "Structural",
            "failure_modes": ["Cracking", "Plastic Deformation"],
            "service_life": {"value": 10, "unit": "years"},
            "tasks": [_task("Inspect cracks/wear/pitting", _cal(1))],
        },
        {
            "id": "Struts (3 for duct support)",
            "group": "Structural",
            "failure_modes": ["Bending from compression", "Shearing at joints"],
            "service_life": {"value": 10, "unit": "years"},
            "tasks": [_task("Inspect bending/deflection", _cal(1))],
        },
        {
            "id": "Duct sockets",
            "group": "Structural",
            "failure_modes": ["Distortion", "Corrosion at plastic-metal interface"],
            "service_life": {"value": 10, "unit": "years"},
            "tasks": [
                _task("Inspect corrosion/wear", _cal(1)),
                _task("Clean rusting and use protectant (as required)", _cal(1)),
            ],
        },
        {
            "id": "Duct sections",
            "group": "Structural",
            "failure_modes": ["Thermal degradation", "Cracking from hydrolysis"],
            "service_life": {"value": 20, "unit": "years"},
            "tasks": [
                _task("Inspect cracks/wear", _cal(1)),
                _task("Use UV protectant (as required)", _cal(1)),
            ],
        },
        {
            "id": "Rain shielding",
            "group": "Structural",
            "failure_modes": ["Rusting", "Corrosion"],
            "service_life": {"value": 10, "unit": "years"},
            "tasks": [_task("Inspect cracks/wear/pitting", _cal(1))],
        },
        # -- electromechanical system -------------------------------------
        {
            "id": "Slew Bearing",
            "group": "Electromechanical",
            "failure_modes": ["Raceway wear/pitting", "Surface spalling", "Thermal fatigue"],
            "service_life": {"value": 1, "unit": "years"},
            "specifications": ["Moment rating: 19050 ft-lbs"],
            "tasks": [
                _task("Lubricate annually", _cal(1)),
                _task("Replace (if necessary)", _cal(1)),
            ],
        },
        {
            "id": "Slip Ring",
            "group": "Electromechanical",
            "failure_modes": ["Raceway wear/pitting", "Abrasion wear", "Thermal fatigue"],
            "service_life": {"value": 40, "unit": "years"},
            "specifications": [
                "Max speed: 250 rpm",
                "Torque: 0.06 Nm",
                "Operating Temp: -40°C - 80°C",
            ],
            "tasks": [
                _task("Replace after 20M cycles", _cyc(20e6, "yaw_oscillations")),
            ],
        },
        {
            "id": "Slip Ring Wiring",
            "group": "Electromechanical",
            "failure_modes": ["Burn-out", "Tearing of wire sleeve", "Shorting", "Splice failure"],
            "specifications": [
                "Max voltage: 600 VDC/VAC",
                "Max current: 30 A/wire",
                "Electrical noise: 10 mΩ @10 rpm",
            ],
            "tasks": [
                _task("Inspect wear", _cal(1)),
                _task("Check terminal voltage", _cal(1)),
                _task("Replace (if required)", _cal(1)),
            ],
        },
        {
            "id": "Slip Ring collar",
            "group": "Electromechanical",
            "failure_modes": ["Rusting/corrosion from leakage"],
            "tasks": [_task("Inspect annually", _cal(1))],
        },
        {
            "id": "Generator Wiring to Slip Ring",
            "group": "Electromechanical",
            "failure_modes": ["Burn-out", "Tearing of wire sleeve", "Shorting", "Splice failure"],
            "specifications": ["Max Amperage: 30 A"],
            "tasks": [_task("Inspect Annually", _cal(1))],
        },
        {
            "id": "Generator",
            "group": "Electromechanical",
            "failure_modes": [
                "Transmission shaft failure",
                "Thermal fatigue",
                "Demagnetization",
                "Filter wear",
                "Stator core damage",
            ],
            "service_life": {"value": 20, "unit": "years"},
            "specifications": [
                "Rated output: 3 kW",
                "Nominal speed: 200 - 400 rpm",
                "Insulation class: F",
            ],
            "tasks": [
                _task("Inspect filters annually", _cal(1)),
                _task("Replace filter (if necessary)", _cal(1)),
                _task("Assess performance after 20 years", _cal(20)),
            ],
        },
        {
            "id": "Generator Shaft",
            "group": "Electromechanical",
            "failure_modes": ["Bending", "Vibration from keyway wear", "Misalignment from vibration"],
            "service_life": {"value": 20, "unit": "years"},
            "tasks": [
                _task("Lubricate", _cal(1)),
                _task("Clean rust", _cal(1)),
                _task("Use protectant (as required)", _cal(1)),
            ],
        },
        {
            "id": "PVC Conduit",
            "group": "Electromechanical",
            "failure_modes": ["Wear", "Cracking"],
            "service_life": {"value": 1, "unit": "years"},
            "specifications": ['3/4-6"'],
            "tasks": [
                _task("Inspect annually", _cal(1)),
                _task("Replace (if necessary)", _cal(1)),
            ],
        },
        # -- control system ------------------------------------------------
        {
            "id": "Voltsys Controller",
            "group": "Control",
            "failure_modes": ["Capacitor failure", "Integrated circuit (IC) failure"],
            "tasks": [_task("Inspect after high load events", _event("high_load"))],
        },
        {
            "id": "Dump Resistors",
            "group": "Control",
            "failure_modes": ["Overheating/Burnout"],
            "tasks": [_task("Inspect after high load events", _event("high_load"))],
        },
        {
            "id": "Fimer Inverter",
            "group": "Control",
            "failure_modes": ["Overvoltage", "Overcurrent", "Capacitor failure"],
            "service_life": {"value": 5, "unit": "years"},
            "specifications": [
                "Output: 6000 W",
                "Max DC input power: 3500 W",
                "Max DC input current: 31.5 A",
                "Max external AC overcurrent protection: 40 A",
                "Operating temp: -25°C - 60°C with derating above 45°C",
            ],
            "tasks": [
                _task("Inspect after high load events", _event("high_load")),
                _task("Inspect annually after 5 years", _cal(1)),
            ],
        },
        {
            "id": "Comm Card",
            "group": "Control",
            "failure_modes": ["IC failure", "Capacitor failure"],
            "service_life": {"value": 2, "unit": "years"},
            "specifications": ["Operating temp: -20°C - 60°C"],
            "tasks": [_task("Inspect after high load events", _event("high_load"))],
        },
        {
            "id": "Shunt Brake",
            "group": "Control",
            "failure_modes": ["Burnout", "Corrosion"],
            "tasks": [_task("Inspect after high load events", _event("high_load"))],
        },
        # -- loaded fasteners ----------------------------------------------
        _fastener(
            "Bolt / M12x35 (48 lb-ft)",
            "bolt",
            ["Grade 8.8", "Torque: 48 lb-ft*", "Ballast foundation bolts"],
            manufacturer_specified=True,
        ),
        _fastener(
            "Bolt / M12x35 (119 lb-ft)",
            "bolt",
            ["Grade 8.8", "Torque: 119 lb-ft*", "Ballast foundation bolts"],
            manufacturer_specified=True,
        ),
        _fastener(
            "Bolt / M33x200",
            "bolt",
            ["Grade 8.8", "Torque: 1083 lb-ft*", "Ballast foundation bolts"],
            manufacturer_specified=True,
        ),
        _fastener(
            "Bolt / M36-4x1000",
            "bolt",
            ["Grade 8.8", "Torque: 777 lb-ft*", "Ballast foundation anchor bolts"],
            manufacturer_specified=True,
        ),
        _fastener(
            "Bolt / M16-2x60",
            "bolt",
            ["Grade 8.8", "Torque: 119 lb-ft*", "Ballast foundation flange bolts"],
            manufacturer_specified=True,
        ),
        _fastener(
            "Bolt / M16x60",
            "bolt",
            ["Grade 8.8", "Torque: 119 lb-ft*", "Screw jack bolts"],
            manufacturer_specified=True,
        ),
        _fastener(
            "Bolt / M10x35",
            "bolt",
            ["Torque: 27 lb-ft*", "Screw jack bolts"],
            manufacturer_specified=True,
        ),
        _fastener("Bolt / M6x50", "bolt", ["Screw jack bolts"]),
        _fastener(
            'Bolt / 5/8-11x2-1/2"',
            "bolt",
            [
                "Zn-Al Coated",
                "Mfr: ARMOR COAT / Part No: UST235844",
                "Connect tower to slew bearing and slew bearing to standpipe assembly",
            ],
        ),
        _fastener(
            "SHCS / M10-1.5x25",
            "screw",
            [
                "Class 12.9",
                "Mfr: ARMOR COAT / Part No: UST710025",
                "Generator attachment screws",
            ],
        ),
        _fastener(
            "Bolt / M14-2x50",
            "bolt",
            ["Class 8.8", "Mfr: Infasco / Part No: 67084", "Generator hub bolt"],
        ),
        _fastener(
            'SHCS / 3/8-16x1-1/4"',
            "screw",
            [
                "Zn Plated",
                "Mfr: ARMOR COAT / Part No: UST235957",
                "Connect the blades to the hub",
            ],
        ),
        _fastener('BHCS / #8-32x1/2"', "screw", ["Black Oxide", "Nose cone screws"]),
        _fastener(
            'SHCS / 1/4-20x5/8"',
            "screw",
            [
                "Zn-Al Coated",
                "Mfr: ARMOR COAT / Part No: UST235919",
                "Connect struts to duct sockets and bedplate",
            ],
        ),
        _fastener(
            'SHCS / 1/4-20x7/8"',
            "screw",
            [
                "Zn-Al Coated",
                "Mfr: ARMOR COAT / Part No: UST235921",
                "Connect struts to duct sockets and bedplate",
            ],
        ),
        _fastener(
            'FBHCS / 1/4-20x1"',
            "screw",
            [
                "Zn Coated",
                "Mfr: Socket Source / Part No: FBHA04C016US",
                "Connect bottom socket to duct(s)",
            ],
        ),
        _fastener(
            'Torx T25 Truss Head Machine Screws / 1/4-20"',
            "screw",
            [
                "Zn Plated",
                "Mfr: Jet Fitting / Part No: 1412MTT-2500",
                "Connect duct sockets to ducts",
            ],
        ),
        _fastener(
            'Rivnut Plusnuts / 1/4-20"',
            "screw",
            [
                "Yellow Zn Plated",
                "Mfr: Libberty Engineering",
                "Seated into duct sections to mate with machine screws",
            ],
        ),
        _fastener(
            'Grub Screw / 3/8-16x3/4"',
            "screw",
            ["Mfr: McMasterr-Carr / Part No: N/A"],
        ),
        _fastener(
            'Slip Ring Screw / #10-24x1/2"',
            "screw",
            ["Mfr: ARMOR COAT / Part No: UST235905"],
        ),
        _fastener(
            'SHCS / 1/4-20x5/8" (Nacelle cover)',
            "screw",
            [
                "Zn-Al Coated",
                "Mfr: ARMOR COAT / Part No: UST235919",
                "Nacelle cover plate screws",
            ],
        ),
        _fastener(
            "Generator Shaft Key and Set Bolt",
            "bolt",
            ["Holds hub to generator shaft"],
        ),
    ]
}
